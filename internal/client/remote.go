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
// Every method is one call of its method's descriptor in internal/proto's
// table, which types its args and reply.
type Remote struct {
	p     *rpc.Peer
	calls atomic.Int64 // message count (E6); off the mutex so calls don't serialize

	mu         sync.Mutex
	onCallback func(proto.SegKey) (bool, error) // guarded by mu
	scans      map[uint64]*scanStream           // live streaming scans; guarded by mu
}

// NewRemote wraps a connected peer. The Callback handler is registered
// immediately so revocations arriving at any time are served; they are
// refused until a session installs its policy.
func NewRemote(p *rpc.Peer) *Remote {
	r := &Remote{p: p}
	p.Serve(rpc.Typed(proto.MethodCallback, func(a *proto.SegArgs) (*proto.CallbackReply, error) {
		r.mu.Lock()
		cb := r.onCallback
		r.mu.Unlock()
		if cb == nil {
			return &proto.CallbackReply{Refused: true}, nil
		}
		refused, err := cb(a.Seg)
		return &proto.CallbackReply{Refused: refused}, err
	}))
	// Pushed scan batches. Frames for an unregistered scan id (in flight
	// after a cancel, or racing the ScanStart reply of a scan the client
	// abandoned) are dropped here.
	rpc.HandleStream(p, proto.StreamScanData, func(stream uint64, body []byte) {
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

// call makes one call of m over r, counted: every Remote method is one call
// of it. The reply is never nil; on an error its fields are not to be read.
func call[A, R any, PA proto.Ptr[A], PR proto.Ptr[R]](r *Remote, m proto.Method[A, R], args *A) (*R, error) {
	r.calls.Add(1)
	rep := new(R)
	return rep, rpc.Call[A, R, PA, PR](r.p, m, args, rep)
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
	rep, err := call(r, proto.MethodHello, &proto.HelloArgs{Name: name})
	return rep.ID, err
}

// OpenDB implements proto.Conn.
func (r *Remote) OpenDB(name string, create bool) (uint32, uint16, error) {
	rep, err := call(r, proto.MethodOpenDB, &proto.OpenDBArgs{Name: name, Create: create})
	return rep.DB, rep.Host, err
}

// NewTx implements proto.Conn.
func (r *Remote) NewTx() (uint64, error) {
	rep, err := call(r, proto.MethodNewTx, &proto.ClientArgs{})
	return rep.Tx, err
}

// RegisterType implements proto.Conn.
func (r *Remote) RegisterType(db uint32, t proto.TypeInfo) (proto.TypeInfo, error) {
	rep, err := call(r, proto.MethodRegisterType, &proto.RegisterTypeArgs{DB: db, Info: t})
	return rep.Info, err
}

// Types implements proto.Conn.
func (r *Remote) Types(db uint32) ([]proto.TypeInfo, error) {
	rep, err := call(r, proto.MethodTypes, &proto.DBArgs{DB: db})
	return rep.Infos, err
}

// NewFileID implements proto.Conn.
func (r *Remote) NewFileID(db uint32) (uint32, error) {
	rep, err := call(r, proto.MethodNewFileID, &proto.DBArgs{DB: db})
	return rep.ID, err
}

// AddArea implements proto.Conn.
func (r *Remote) AddArea(db uint32) (uint32, error) {
	rep, err := call(r, proto.MethodAddArea, &proto.DBArgs{DB: db})
	return rep.ID, err
}

// ReserveSegments implements proto.Conn.
func (r *Remote) ReserveSegments(client uint32, db uint32, areaHint, slottedPages, dataPages, n int) ([]proto.Reserved, error) {
	rep, err := call(r, proto.MethodReserveSegments, &proto.ReserveSegmentsArgs{
		Client: client, DB: db, AreaHint: areaHint, SlottedPages: slottedPages, DataPages: dataPages, N: n,
	})
	return rep.Runs, err
}

// SegInfo implements proto.Conn.
func (r *Remote) SegInfo(seg proto.SegKey) (int, error) {
	rep, err := call(r, proto.MethodSegInfo, &proto.SegArgs{Seg: seg})
	return rep.SlottedPages, err
}

// FetchSeg implements proto.Conn: slotted + overflow + data in one round
// trip (the reply is one SegImage).
func (r *Remote) FetchSeg(client uint32, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	img, err := call(r, proto.MethodFetchSeg, &proto.ClientSegArgs{Client: client, Seg: seg})
	return img.Slotted, img.Overflow, img.Data, err
}

// FetchLarge implements proto.Conn.
func (r *Remote) FetchLarge(client uint32, seg proto.SegKey, slot int) ([]byte, error) {
	rep, err := call(r, proto.MethodFetchLarge, &proto.FetchLargeArgs{Client: client, Seg: seg, Slot: slot})
	return rep.Data, err
}

// SnapOpen implements proto.Conn: open a server-side snapshot.
func (r *Remote) SnapOpen(client uint32) (uint64, uint64, error) {
	rep, err := call(r, proto.MethodSnapOpen, &proto.ClientArgs{Client: client})
	return rep.Snap, rep.Stamp, err
}

// SnapClose implements proto.Conn.
func (r *Remote) SnapClose(client uint32, snap uint64) error {
	_, err := call(r, proto.MethodSnapClose, &proto.SnapCloseArgs{Client: client, Snap: snap})
	return err
}

// SnapFetchSeg implements proto.Conn: the segment's image as of the
// snapshot's stamp, without joining the callback protocol.
func (r *Remote) SnapFetchSeg(client uint32, snap uint64, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	img, err := call(r, proto.MethodSnapFetchSeg, &proto.SnapFetchArgs{Client: client, Snap: snap, Seg: seg})
	return img.Slotted, img.Overflow, img.Data, err
}

// Resolve implements proto.Conn.
func (r *Remote) Resolve(db uint32, headerOff uint64) (proto.SegKey, int, error) {
	rep, err := call(r, proto.MethodResolve, &proto.ResolveArgs{DB: db, HeaderOff: headerOff})
	return rep.Seg, rep.Slot, err
}

// Lock implements proto.Conn.
func (r *Remote) Lock(client uint32, tx uint64, seg proto.SegKey, mode proto.LockMode) error {
	_, err := call(r, proto.MethodLock, &proto.LockArgs{Client: client, Tx: tx, Seg: seg, Mode: mode})
	return err
}

// LockObject implements proto.Conn.
func (r *Remote) LockObject(client uint32, tx uint64, seg proto.SegKey, slot int, mode proto.LockMode) error {
	_, err := call(r, proto.MethodLockObject, &proto.LockObjectArgs{Client: client, Tx: tx, Seg: seg, Slot: slot, Mode: mode})
	return err
}

// Publish implements proto.Conn: one Commit message, or Prepare's, which
// carries the created segments beside the images.
func (r *Remote) Publish(client uint32, tx uint64, created []proto.Created, segs []proto.SegImage, prepare bool) error {
	m := proto.MethodCommit
	if prepare {
		m = proto.MethodPrepare
	}
	_, err := call(r, m, &proto.CommitArgs{Client: client, Tx: tx, Segs: segs, Created: created})
	return err
}

// Abort implements proto.Conn.
func (r *Remote) Abort(client uint32, tx uint64) error {
	_, err := call(r, proto.MethodAbort, &proto.AbortArgs{Client: client, Tx: tx})
	return err
}

// Decide implements proto.Conn.
func (r *Remote) Decide(tx uint64, commit bool) error {
	_, err := call(r, proto.MethodDecide, &proto.DecideArgs{Tx: tx, Commit: commit})
	return err
}

// SegmentsOf implements proto.Conn.
func (r *Remote) SegmentsOf(db, fileID uint32) ([]proto.SegKey, error) {
	rep, err := call(r, proto.MethodSegmentsOf, &proto.SegmentsOfArgs{DB: db, FileID: fileID})
	return rep.Segs, err
}

// Released implements proto.Conn.
func (r *Remote) Released(client uint32, segs []proto.SegKey) error {
	_, err := call(r, proto.MethodReleased, &proto.ReleasedArgs{Client: client, Segs: segs})
	return err
}

// StoreLarge implements proto.Conn.
func (r *Remote) StoreLarge(client uint32, tx uint64, seg proto.SegKey, content []byte) ([]byte, error) {
	rep, err := call(r, proto.MethodStoreLarge, &proto.StoreLargeArgs{Client: client, Tx: tx, Seg: seg, Content: content})
	return rep.Data, err
}

// AllocRun implements proto.Conn.
func (r *Remote) AllocRun(db uint32, nPages int) (uint32, int64, int, error) {
	rep, err := call(r, proto.MethodAllocRun, &proto.AllocRunArgs{DB: db, NPages: nPages})
	return rep.Area, rep.Start, rep.Granted, err
}

// ReadRun implements proto.Conn.
func (r *Remote) ReadRun(db, area uint32, start int64, nPages int) ([]byte, error) {
	rep, err := call(r, proto.MethodReadRun, &proto.RunArgs{DB: db, Area: area, Start: start, NPages: nPages})
	return rep.Data, err
}

// WriteRun implements proto.Conn.
func (r *Remote) WriteRun(client uint32, tx uint64, db, area uint32, start int64, data []byte) error {
	_, err := call(r, proto.MethodWriteRun, &proto.RunArgs{Client: client, Tx: tx, DB: db, Area: area, Start: start, Data: data})
	return err
}

// NameBind implements proto.Conn.
func (r *Remote) NameBind(db uint32, name string, o oid.OID) error {
	_, err := call(r, proto.MethodNameBind, &proto.NameBindArgs{DB: db, Name: name, OID: o})
	return err
}

// NameLookup implements proto.Conn.
func (r *Remote) NameLookup(db uint32, name string) (oid.OID, error) {
	rep, err := call(r, proto.MethodNameLookup, &proto.NameArgs{DB: db, Name: name})
	return rep.OID, err
}

// NameUnbind implements proto.Conn.
func (r *Remote) NameUnbind(db uint32, name string) error {
	_, err := call(r, proto.MethodNameUnbind, &proto.NameArgs{DB: db, Name: name})
	return err
}

// NameRemoveOID implements proto.Conn.
func (r *Remote) NameRemoveOID(db uint32, o oid.OID) error {
	_, err := call(r, proto.MethodNameRemoveOID, &proto.NameRemoveOIDArgs{DB: db, OID: o})
	return err
}

// Close tears down the connection.
func (r *Remote) Close() error { return r.p.Close() }

var _ proto.Conn = (*Remote)(nil)
