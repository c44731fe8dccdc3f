// Package client implements BeSS client sessions (paper §3–§4): the
// copy-on-access operation mode over a private buffer pool, inter-
// transaction caching of data with callback-based consistency, automatic
// lock acquisition driven by update detection, and commit shipping to the
// owning server.
package client

import (
	"sync"
	"sync/atomic"

	"bess/internal/oid"
	"bess/internal/proto"
	"bess/internal/rpc"
)

// Remote implements proto.Conn over an RPC peer; one per server connection.
// Every method is one rpc.Call carrying its args and reply message from
// internal/proto.
type Remote struct {
	p     *rpc.Peer
	calls atomic.Int64 // message count (E6); off the mutex so calls don't serialize

	mu         sync.Mutex
	onCallback func(proto.SegKey) (bool, error) // guarded by mu
	scans      map[uint64]*scanStream           // live streaming scans; guarded by mu
}

// NewRemote wraps a connected peer. The "Callback" handler is registered
// immediately so revocations arriving at any time are served; they are
// refused until a session installs its policy.
func NewRemote(p *rpc.Peer) *Remote {
	r := &Remote{p: p}
	p.Serve(map[string]rpc.Method{"Callback": rpc.Typed(func(a *proto.SegArgs) (*proto.CallbackReply, error) {
		r.mu.Lock()
		cb := r.onCallback
		r.mu.Unlock()
		if cb == nil {
			return &proto.CallbackReply{Refused: true}, nil
		}
		refused, err := cb(a.Seg)
		return &proto.CallbackReply{Refused: refused}, err
	})})
	// Pushed scan batches. Frames for an unregistered scan id (in flight
	// after a cancel, or racing the ScanStart reply of a scan the client
	// abandoned) are dropped here.
	p.HandleStream("ScanData", func(stream uint64, body []byte) {
		r.mu.Lock()
		st := r.scans[stream]
		r.mu.Unlock()
		if st != nil {
			st.deliver(body)
		}
	})
	// A dead peer must wake iterators parked on a scan stream.
	p.SetOnClose(func(err error) {
		if err == nil {
			err = rpc.ErrClosed
		}
		r.mu.Lock()
		sts := make([]*scanStream, 0, len(r.scans))
		for _, st := range r.scans {
			sts = append(sts, st)
		}
		r.mu.Unlock()
		for _, st := range sts {
			st.fail(err)
		}
	})
	return r
}

// Dial connects to a server address with the default fault-hardened dialer
// (connect timeout, jittered retry — see rpc.Dialer) and wraps the peer.
func Dial(addr string) (*Remote, error) {
	var d rpc.Dialer
	return DialWith(&d, addr)
}

// DialWith connects with an explicit dialer configuration.
func DialWith(d *rpc.Dialer, addr string) (*Remote, error) {
	p, err := d.Dial(addr)
	if err != nil {
		return nil, err
	}
	return NewRemote(p), nil
}

// SetCallback implements proto.Conn. The server calls back over this
// connection, which carries one client: cb answers its Callback requests.
func (r *Remote) SetCallback(_ uint32, cb func(proto.SegKey) (bool, error)) error {
	r.mu.Lock()
	r.onCallback = cb
	r.mu.Unlock()
	return nil
}

// Calls reports the number of RPCs issued (message counting for E6).
func (r *Remote) Calls() int64 { return r.calls.Load() }

func (r *Remote) call(method string, args, reply proto.Message) error {
	r.calls.Add(1)
	return r.p.Call(method, args, reply)
}

// scanCtl sends one flow-control frame for scan id (credit grant or cancel).
func (r *Remote) scanCtl(id uint64, cancel bool, credit uint64) error {
	body, err := proto.Encode(&proto.ScanCtl{Cancel: cancel, Credit: credit})
	if err != nil {
		return err
	}
	return r.p.SendStream("ScanCtl", id, body)
}

// registerScan routes pushed ScanData frames for id to st.
func (r *Remote) registerScan(id uint64, st *scanStream) {
	r.mu.Lock()
	if r.scans == nil {
		r.scans = make(map[uint64]*scanStream)
	}
	r.scans[id] = st
	r.mu.Unlock()
}

// unregisterScan stops routing for id; later frames are dropped.
func (r *Remote) unregisterScan(id uint64) {
	r.mu.Lock()
	delete(r.scans, id)
	r.mu.Unlock()
}

// Hello implements proto.Conn.
func (r *Remote) Hello(name string) (uint32, error) {
	var rep proto.IDReply
	if err := r.call("Hello", &proto.HelloArgs{Name: name}, &rep); err != nil {
		return 0, err
	}
	return rep.ID, nil
}

// OpenDB implements proto.Conn.
func (r *Remote) OpenDB(name string, create bool) (uint32, uint16, error) {
	var rep proto.OpenDBReply
	if err := r.call("OpenDB", &proto.OpenDBArgs{Name: name, Create: create}, &rep); err != nil {
		return 0, 0, err
	}
	return rep.DB, rep.Host, nil
}

// NewTx implements proto.Conn.
func (r *Remote) NewTx() (uint64, error) {
	var rep proto.NewTxReply
	if err := r.call("NewTx", &proto.ClientArgs{}, &rep); err != nil {
		return 0, err
	}
	return rep.Tx, nil
}

// RegisterType implements proto.Conn.
func (r *Remote) RegisterType(db uint32, t proto.TypeInfo) (proto.TypeInfo, error) {
	var rep proto.RegisterTypeReply
	if err := r.call("RegisterType", &proto.RegisterTypeArgs{DB: db, Info: t}, &rep); err != nil {
		return proto.TypeInfo{}, err
	}
	return rep.Info, nil
}

// Types implements proto.Conn.
func (r *Remote) Types(db uint32) ([]proto.TypeInfo, error) {
	var rep proto.TypesReply
	if err := r.call("Types", &proto.DBArgs{DB: db}, &rep); err != nil {
		return nil, err
	}
	return rep.Infos, nil
}

// NewFileID implements proto.Conn.
func (r *Remote) NewFileID(db uint32) (uint32, error) {
	var rep proto.IDReply
	if err := r.call("NewFileID", &proto.DBArgs{DB: db}, &rep); err != nil {
		return 0, err
	}
	return rep.ID, nil
}

// AddArea implements proto.Conn.
func (r *Remote) AddArea(db uint32) (uint32, error) {
	var rep proto.IDReply
	if err := r.call("AddArea", &proto.DBArgs{DB: db}, &rep); err != nil {
		return 0, err
	}
	return rep.ID, nil
}

// CreateSegment implements proto.Conn.
func (r *Remote) CreateSegment(client uint32, tx uint64, db, fileID uint32, slottedPages, dataPages, areaHint int) (proto.CreateSegmentReply, error) {
	var rep proto.CreateSegmentReply
	err := r.call("CreateSegment", &proto.CreateSegmentArgs{
		Client: client, Tx: tx, DB: db, FileID: fileID,
		SlottedPages: slottedPages, DataPages: dataPages, AreaHint: areaHint,
	}, &rep)
	return rep, err
}

// SegInfo implements proto.Conn.
func (r *Remote) SegInfo(seg proto.SegKey) (int, error) {
	var rep proto.SegInfoReply
	err := r.call("SegInfo", &proto.SegArgs{Seg: seg}, &rep)
	return rep.SlottedPages, err
}

// FetchSeg implements proto.Conn: slotted + overflow + data in one round
// trip (the reply is one SegImage).
func (r *Remote) FetchSeg(client uint32, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	var img proto.SegImage
	err := r.call("FetchSeg", &proto.ClientSegArgs{Client: client, Seg: seg}, &img)
	return img.Slotted, img.Overflow, img.Data, err
}

// FetchLarge implements proto.Conn.
func (r *Remote) FetchLarge(client uint32, seg proto.SegKey, slot int) ([]byte, error) {
	var rep proto.Bytes
	err := r.call("FetchLarge", &proto.FetchLargeArgs{Client: client, Seg: seg, Slot: slot}, &rep)
	return rep.Data, err
}

// SnapOpen implements proto.Conn: open a server-side snapshot.
func (r *Remote) SnapOpen(client uint32) (uint64, uint64, error) {
	var rep proto.SnapOpenReply
	err := r.call("SnapOpen", &proto.ClientArgs{Client: client}, &rep)
	return rep.Snap, rep.Stamp, err
}

// SnapClose implements proto.Conn.
func (r *Remote) SnapClose(client uint32, snap uint64) error {
	return r.call("SnapClose", &proto.SnapCloseArgs{Client: client, Snap: snap}, &proto.Empty{})
}

// SnapFetchSeg implements proto.Conn: the segment's image as of the
// snapshot's stamp, without joining the callback protocol.
func (r *Remote) SnapFetchSeg(client uint32, snap uint64, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	var img proto.SegImage
	err := r.call("SnapFetchSeg", &proto.SnapFetchArgs{Client: client, Snap: snap, Seg: seg}, &img)
	return img.Slotted, img.Overflow, img.Data, err
}

// Resolve implements proto.Conn.
func (r *Remote) Resolve(db uint32, headerOff uint64) (proto.SegKey, int, error) {
	var rep proto.ResolveReply
	err := r.call("Resolve", &proto.ResolveArgs{DB: db, HeaderOff: headerOff}, &rep)
	return rep.Seg, rep.Slot, err
}

// Lock implements proto.Conn.
func (r *Remote) Lock(client uint32, tx uint64, seg proto.SegKey, mode proto.LockMode) error {
	return r.call("Lock", &proto.LockArgs{Client: client, Tx: tx, Seg: seg, Mode: mode}, &proto.Empty{})
}

// LockObject implements proto.Conn.
func (r *Remote) LockObject(client uint32, tx uint64, seg proto.SegKey, slot int, mode proto.LockMode) error {
	return r.call("LockObject", &proto.LockObjectArgs{Client: client, Tx: tx, Seg: seg, Slot: slot, Mode: mode}, &proto.Empty{})
}

// Commit implements proto.Conn.
func (r *Remote) Commit(client uint32, tx uint64, segs []proto.SegImage) error {
	return r.call("Commit", &proto.CommitArgs{Client: client, Tx: tx, Segs: segs}, &proto.Empty{})
}

// Abort implements proto.Conn.
func (r *Remote) Abort(client uint32, tx uint64) error {
	return r.call("Abort", &proto.AbortArgs{Client: client, Tx: tx}, &proto.Empty{})
}

// Prepare implements proto.Conn.
func (r *Remote) Prepare(client uint32, tx uint64, segs []proto.SegImage) error {
	return r.call("Prepare", &proto.CommitArgs{Client: client, Tx: tx, Segs: segs}, &proto.Empty{})
}

// Decide implements proto.Conn.
func (r *Remote) Decide(tx uint64, commit bool) error {
	return r.call("Decide", &proto.DecideArgs{Tx: tx, Commit: commit}, &proto.Empty{})
}

// SegmentsOf implements proto.Conn.
func (r *Remote) SegmentsOf(db, fileID uint32) ([]proto.SegKey, error) {
	var rep proto.SegmentsOfReply
	err := r.call("SegmentsOf", &proto.SegmentsOfArgs{DB: db, FileID: fileID}, &rep)
	return rep.Segs, err
}

// Released implements proto.Conn.
func (r *Remote) Released(client uint32, segs []proto.SegKey) error {
	return r.call("Released", &proto.ReleasedArgs{Client: client, Segs: segs}, &proto.Empty{})
}

// StoreLarge implements proto.Conn.
func (r *Remote) StoreLarge(client uint32, tx uint64, seg proto.SegKey, content []byte) ([]byte, error) {
	var rep proto.Bytes
	err := r.call("StoreLarge", &proto.StoreLargeArgs{Client: client, Tx: tx, Seg: seg, Content: content}, &rep)
	return rep.Data, err
}

// AllocRun implements proto.Conn.
func (r *Remote) AllocRun(db uint32, nPages int) (uint32, int64, int, error) {
	var rep proto.AllocRunReply
	err := r.call("AllocRun", &proto.AllocRunArgs{DB: db, NPages: nPages}, &rep)
	return rep.Area, rep.Start, rep.Granted, err
}

// FreeRun implements proto.Conn.
func (r *Remote) FreeRun(db, area uint32, start int64) error {
	return r.call("FreeRun", &proto.RunArgs{DB: db, Area: area, Start: start}, &proto.Empty{})
}

// ReadRun implements proto.Conn.
func (r *Remote) ReadRun(db, area uint32, start int64, nPages int) ([]byte, error) {
	var rep proto.Bytes
	err := r.call("ReadRun", &proto.RunArgs{DB: db, Area: area, Start: start, NPages: nPages}, &rep)
	return rep.Data, err
}

// WriteRun implements proto.Conn.
func (r *Remote) WriteRun(db, area uint32, start int64, data []byte) error {
	return r.call("WriteRun", &proto.RunArgs{DB: db, Area: area, Start: start, Data: data}, &proto.Empty{})
}

// NameBind implements proto.Conn.
func (r *Remote) NameBind(db uint32, name string, o oid.OID) error {
	return r.call("NameBind", &proto.NameBindArgs{DB: db, Name: name, OID: o}, &proto.Empty{})
}

// NameLookup implements proto.Conn.
func (r *Remote) NameLookup(db uint32, name string) (oid.OID, error) {
	var rep proto.NameLookupReply
	err := r.call("NameLookup", &proto.NameArgs{DB: db, Name: name}, &rep)
	return rep.OID, err
}

// NameUnbind implements proto.Conn.
func (r *Remote) NameUnbind(db uint32, name string) error {
	return r.call("NameUnbind", &proto.NameArgs{DB: db, Name: name}, &proto.Empty{})
}

// NameRemoveOID implements proto.Conn.
func (r *Remote) NameRemoveOID(db uint32, o oid.OID) error {
	return r.call("NameRemoveOID", &proto.NameRemoveOIDArgs{DB: db, OID: o}, &proto.Empty{})
}

// Close tears down the connection.
func (r *Remote) Close() error { return r.p.Close() }

var _ proto.Conn = (*Remote)(nil)
