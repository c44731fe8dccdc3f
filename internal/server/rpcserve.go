package server

import (
	"bess/internal/proto"
	"bess/internal/rpc"
)

// ServePeer wires one connected peer to the server: every method of
// internal/proto's table gets an rpc handler over its messages, and the
// client's callback path (server→client revocation) is routed back over the
// same connection.
// The whole table is installed in one step — an accepted peer answers no
// request before it — and ServePeer returns; the peer's read loop drives
// everything.
func ServePeer(s *Server, p *rpc.Peer) {
	var clientID uint32
	p.SetOnClose(func(error) {
		if clientID != 0 {
			s.Disconnect(clientID)
		}
	})
	empty := &proto.Empty{}

	h := []rpc.Method{
		rpc.Typed(proto.MethodHello, func(a *proto.HelloArgs) (*proto.IDReply, error) {
			id, err := s.Hello(a.Name)
			if err != nil {
				return nil, err
			}
			clientID = id
			// Revocations travel back over this connection.
			err = s.SetCallback(id, func(seg proto.SegKey) (bool, error) {
				var rep proto.CallbackReply
				err := rpc.Call(p, proto.MethodCallback, &proto.SegArgs{Seg: seg}, &rep)
				return rep.Refused, err
			})
			return &proto.IDReply{ID: id}, err
		}),
		rpc.Typed(proto.MethodOpenDB, func(a *proto.OpenDBArgs) (*proto.OpenDBReply, error) {
			db, host, err := s.OpenDB(a.Name, a.Create)
			return &proto.OpenDBReply{DB: db, Host: host}, err
		}),
		rpc.Typed(proto.MethodNewTx, func(*proto.ClientArgs) (*proto.NewTxReply, error) {
			id, err := s.NewTx()
			return &proto.NewTxReply{Tx: id}, err
		}),
		rpc.Typed(proto.MethodRegisterType, func(a *proto.RegisterTypeArgs) (*proto.RegisterTypeReply, error) {
			info, err := s.RegisterType(a.DB, a.Info)
			return &proto.RegisterTypeReply{Info: info}, err
		}),
		rpc.Typed(proto.MethodTypes, func(a *proto.DBArgs) (*proto.TypesReply, error) {
			infos, err := s.Types(a.DB)
			return &proto.TypesReply{Infos: infos}, err
		}),
		rpc.Typed(proto.MethodNewFileID, func(a *proto.DBArgs) (*proto.IDReply, error) {
			id, err := s.NewFileID(a.DB)
			return &proto.IDReply{ID: id}, err
		}),
		rpc.Typed(proto.MethodAddArea, func(a *proto.DBArgs) (*proto.IDReply, error) {
			id, err := s.AddArea(a.DB)
			return &proto.IDReply{ID: id}, err
		}),
		rpc.Typed(proto.MethodReserveSegments, func(a *proto.ReserveSegmentsArgs) (*proto.ReserveSegmentsReply, error) {
			runs, err := s.ReserveSegments(a.Client, a.DB, a.AreaHint, a.SlottedPages, a.DataPages, a.N)
			return &proto.ReserveSegmentsReply{Runs: runs}, err
		}),
		rpc.Typed(proto.MethodSegInfo, func(a *proto.SegArgs) (*proto.SegInfoReply, error) {
			n, err := s.SegInfo(a.Seg)
			return &proto.SegInfoReply{SlottedPages: n}, err
		}),
		rpc.Typed(proto.MethodFetchSeg, func(a *proto.ClientSegArgs) (*proto.SegImage, error) {
			sl, ov, data, err := s.FetchSeg(a.Client, a.Seg)
			return &proto.SegImage{Seg: a.Seg, Slotted: sl, Overflow: ov, Data: data}, err
		}),
		// Snapshot reads (DESIGN.md §7): zero locks server-side.
		rpc.Typed(proto.MethodSnapOpen, func(a *proto.ClientArgs) (*proto.SnapOpenReply, error) {
			snap, stamp, err := s.SnapOpen(a.Client)
			return &proto.SnapOpenReply{Snap: snap, Stamp: stamp}, err
		}),
		rpc.Typed(proto.MethodSnapClose, func(a *proto.SnapCloseArgs) (*proto.Empty, error) {
			return empty, s.SnapClose(a.Client, a.Snap)
		}),
		rpc.Typed(proto.MethodSnapFetchSeg, func(a *proto.SnapFetchArgs) (*proto.SegImage, error) {
			sl, ov, data, _, err := s.snapFetch(a.Snap, a.Seg) // encoded, never written: no clone
			return &proto.SegImage{Seg: a.Seg, Slotted: sl, Overflow: ov, Data: data}, err
		}),
		rpc.Typed(proto.MethodResolve, func(a *proto.ResolveArgs) (*proto.ResolveReply, error) {
			seg, slot, err := s.Resolve(a.DB, a.HeaderOff)
			return &proto.ResolveReply{Seg: seg, Slot: slot}, err
		}),
		rpc.Typed(proto.MethodLock, func(a *proto.LockArgs) (*proto.Empty, error) {
			return empty, s.Lock(a.Client, a.Tx, a.Seg, a.Mode)
		}),
		rpc.Typed(proto.MethodLockObject, func(a *proto.LockObjectArgs) (*proto.Empty, error) {
			return empty, s.LockObject(a.Client, a.Tx, a.Seg, a.Slot, a.Mode)
		}),
		// A commit answers at its publication, and writes its pages after
		// the reply, on this dispatch goroutine, before its locks release. A
		// write that fails then is repaired or quarantined (repairWrites):
		// the commit stands, and the reply said so.
		rpc.TypedThen(proto.MethodCommit, func(a *proto.CommitArgs) (*proto.Empty, func(), error) {
			t, err := s.publishing(a.Client, a.Tx, a.Created, a.Segs, false)
			if t == nil {
				return empty, nil, err
			}
			return empty, func() { _ = t.Finish() }, err
		}),
		rpc.Typed(proto.MethodAbort, func(a *proto.AbortArgs) (*proto.Empty, error) {
			return empty, s.Abort(a.Client, a.Tx)
		}),
		rpc.Typed(proto.MethodPrepare, func(a *proto.CommitArgs) (*proto.Empty, error) {
			return empty, s.Publish(a.Client, a.Tx, a.Created, a.Segs, true)
		}),
		rpc.Typed(proto.MethodDecide, func(a *proto.DecideArgs) (*proto.Empty, error) {
			return empty, s.Decide(a.Tx, a.Commit)
		}),
		rpc.Typed(proto.MethodSegmentsOf, func(a *proto.SegmentsOfArgs) (*proto.SegmentsOfReply, error) {
			segs, err := s.SegmentsOf(a.DB, a.FileID)
			return &proto.SegmentsOfReply{Segs: segs}, err
		}),
		rpc.Typed(proto.MethodReleased, func(a *proto.ReleasedArgs) (*proto.Empty, error) {
			return empty, s.Released(a.Client, a.Segs)
		}),
		rpc.Typed(proto.MethodNameBind, func(a *proto.NameBindArgs) (*proto.Empty, error) {
			return empty, s.NameBind(a.DB, a.Name, a.OID)
		}),
		rpc.Typed(proto.MethodNameLookup, func(a *proto.NameArgs) (*proto.NameLookupReply, error) {
			o, err := s.NameLookup(a.DB, a.Name)
			return &proto.NameLookupReply{OID: o}, err
		}),
		rpc.Typed(proto.MethodNameUnbind, func(a *proto.NameArgs) (*proto.Empty, error) {
			return empty, s.NameUnbind(a.DB, a.Name)
		}),
		rpc.Typed(proto.MethodNameRemoveOID, func(a *proto.NameRemoveOIDArgs) (*proto.Empty, error) {
			return empty, s.NameRemoveOID(a.DB, a.OID)
		}),
	}
	// Streaming scans: ScanStart/SnapScanStart plus the ScanCtl stream.
	p.Serve(append(h, serveScan(s, p)...)...)
}
