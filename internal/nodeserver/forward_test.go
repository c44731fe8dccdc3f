package nodeserver

import (
	"reflect"
	"sort"
	"testing"

	"bess/internal/proto"
)

// recordingUpstream is a proto.Conn that notes, per client-carrying method,
// the client id it was called with. Every other method is the embedded nil
// Conn's: calling one panics, which is the point — nothing below forwards them.
type recordingUpstream struct {
	proto.Conn
	saw map[string]uint32
}

const upstreamID = 77

func (u *recordingUpstream) Hello(string) (uint32, error) { return upstreamID, nil }
func (u *recordingUpstream) SetCallback(c uint32, _ func(proto.SegKey) (bool, error)) error {
	u.saw["SetCallback"] = c
	return nil
}
func (u *recordingUpstream) FetchSeg(c uint32, _ proto.SegKey) ([]byte, []byte, []byte, error) {
	u.saw["FetchSeg"] = c
	return nil, nil, nil, nil
}
func (u *recordingUpstream) Lock(c uint32, _ uint64, _ proto.SegKey, _ proto.LockMode) error {
	u.saw["Lock"] = c
	return nil
}
func (u *recordingUpstream) LockObject(c uint32, _ uint64, _ proto.SegKey, _ int, _ proto.LockMode) error {
	u.saw["LockObject"] = c
	return nil
}
func (u *recordingUpstream) Abort(c uint32, _ uint64) error {
	u.saw["Abort"] = c
	return nil
}
func (u *recordingUpstream) ReserveSegments(c uint32, _ uint32, _, _, _, _ int) ([]proto.Reserved, error) {
	u.saw["ReserveSegments"] = c
	return []proto.Reserved{{Seg: proto.SegKey{Area: 1, Start: 8}}}, nil
}
func (u *recordingUpstream) Publish(c uint32, _ uint64, _ []proto.Created, _ []proto.SegImage, _ bool) error {
	u.saw["Publish"] = c
	return nil
}
func (u *recordingUpstream) Released(c uint32, _ []proto.SegKey) error {
	u.saw["Released"] = c
	return nil
}
func (u *recordingUpstream) SnapOpen(c uint32) (uint64, uint64, error) {
	u.saw["SnapOpen"] = c
	return 1, 0, nil
}
func (u *recordingUpstream) SnapClose(c uint32, _ uint64) error {
	u.saw["SnapClose"] = c
	return nil
}
func (u *recordingUpstream) SnapFetchSeg(c uint32, _ uint64, _ proto.SegKey) ([]byte, []byte, []byte, error) {
	u.saw["SnapFetchSeg"] = c
	return nil, nil, nil, nil
}

// TestLocalIDsNeverReachUpstream guards the embedded forwarder. The node
// server answers the proto.Conn methods it does not spell out with its
// upstream's, unchanged — right for calls that name no client, wrong for one
// that does: a local application's id means nothing upstream, where the only
// client is the node server. Every Conn method is therefore either listed
// here as carrying no client, or shown to arrive upstream under the node
// server's own id. A method added to proto.Conn fails this test until it is
// put on one side.
func TestLocalIDsNeverReachUpstream(t *testing.T) {
	noClient := map[string]bool{
		"Hello":  true, // registers a local; the node said its own Hello at New
		"OpenDB": true, "NewTx": true, "RegisterType": true, "Types": true, "AddArea": true,
		"NewFileID": true, "SegInfo": true, "Resolve": true, "Decide": true,
		"SegmentsOf": true,
		"NameBind":   true, "NameLookup": true, "NameUnbind": true, "NameRemoveOID": true,
	}
	up := &recordingUpstream{saw: make(map[string]uint32)}
	ns, err := New(up, "node", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	local, _ := ns.Hello("app")
	if local == upstreamID {
		t.Fatal("the test needs a local id that differs from the upstream one")
	}
	seg := proto.SegKey{Area: 1, Start: 8}
	segs := []proto.SegImage{{Seg: seg}}
	ns.FetchSeg(local, seg)
	ns.Lock(local, 1, seg, proto.LockX)
	ns.LockObject(local, 1, seg, 0, proto.LockX)
	ns.Abort(local, 1)
	ns.Released(local, []proto.SegKey{seg})
	ns.ReserveSegments(local, 1, -1, 1, 1, 1)
	ns.Publish(local, 1, []proto.Created{{Reserved: proto.Reserved{Seg: seg}}}, segs, false)
	ns.SnapOpen(local)
	ns.SnapClose(local, 1)
	ns.SnapFetchSeg(local, 1, seg)

	var unclassified, wrongID []string
	conn := reflect.TypeOf((*proto.Conn)(nil)).Elem()
	for i := 0; i < conn.NumMethod(); i++ {
		name := conn.Method(i).Name
		switch got, called := up.saw[name]; {
		case noClient[name] && called:
			t.Errorf("%s is listed as carrying no client, yet the upstream records one for it", name)
		case noClient[name]:
		case !called:
			unclassified = append(unclassified, name)
		case got != upstreamID:
			wrongID = append(wrongID, name)
		}
	}
	sort.Strings(unclassified)
	if len(unclassified) > 0 {
		t.Errorf("proto.Conn methods neither listed as client-free nor seen upstream (does NodeServer forward a local id?): %v", unclassified)
	}
	if len(wrongID) > 0 {
		t.Errorf("methods that reached the upstream under a local application's id: %v", wrongID)
	}
}
