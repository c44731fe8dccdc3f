package server

import (
	"bess/internal/proto"
	"bess/internal/rpc"
)

// ServePeer wires one connected peer to the server: every proto method gets
// an rpc handler over its args and reply message, and the client's callback
// path (server→client revocation) is routed back over the same connection.
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

	h := map[string]rpc.Handler{
		"Hello": rpc.Typed(func(a *proto.HelloArgs) (*proto.IDReply, error) {
			id, err := s.Hello(a.Name)
			if err != nil {
				return nil, err
			}
			clientID = id
			// Revocations travel back over this connection.
			err = s.SetCallback(id, func(seg proto.SegKey) (bool, error) {
				var rep proto.CallbackReply
				err := p.Call("Callback", &proto.SegArgs{Seg: seg}, &rep)
				return rep.Refused, err
			})
			return &proto.IDReply{ID: id}, err
		}),
		"OpenDB": rpc.Typed(func(a *proto.OpenDBArgs) (*proto.OpenDBReply, error) {
			db, host, err := s.OpenDB(a.Name, a.Create)
			return &proto.OpenDBReply{DB: db, Host: host}, err
		}),
		"NewTx": rpc.Typed(func(*proto.ClientArgs) (*proto.NewTxReply, error) {
			id, err := s.NewTx()
			return &proto.NewTxReply{Tx: id}, err
		}),
		"RegisterType": rpc.Typed(func(a *proto.RegisterTypeArgs) (*proto.RegisterTypeReply, error) {
			info, err := s.RegisterType(a.DB, a.Info)
			return &proto.RegisterTypeReply{Info: info}, err
		}),
		"Types": rpc.Typed(func(a *proto.DBArgs) (*proto.TypesReply, error) {
			infos, err := s.Types(a.DB)
			return &proto.TypesReply{Infos: infos}, err
		}),
		"NewFileID": rpc.Typed(func(a *proto.DBArgs) (*proto.IDReply, error) {
			id, err := s.NewFileID(a.DB)
			return &proto.IDReply{ID: id}, err
		}),
		"AddArea": rpc.Typed(func(a *proto.DBArgs) (*proto.IDReply, error) {
			id, err := s.AddArea(a.DB)
			return &proto.IDReply{ID: id}, err
		}),
		"CreateSegment": rpc.Typed(func(a *proto.CreateSegmentArgs) (*proto.CreateSegmentReply, error) {
			rep, err := s.CreateSegment(a.Client, a.Tx, a.DB, a.FileID, a.SlottedPages, a.DataPages, a.AreaHint)
			return &rep, err
		}),
		"SegInfo": rpc.Typed(func(a *proto.SegArgs) (*proto.SegInfoReply, error) {
			n, err := s.SegInfo(a.Seg)
			return &proto.SegInfoReply{SlottedPages: n}, err
		}),
		"FetchSeg": rpc.Typed(func(a *proto.ClientSegArgs) (*proto.SegImage, error) {
			sl, ov, data, err := s.FetchSeg(a.Client, a.Seg)
			return &proto.SegImage{Seg: a.Seg, Slotted: sl, Overflow: ov, Data: data}, err
		}),
		"FetchLarge": rpc.Typed(func(a *proto.FetchLargeArgs) (*proto.Bytes, error) {
			d, err := s.FetchLarge(a.Client, a.Seg, a.Slot)
			return &proto.Bytes{Data: d}, err
		}),
		// Snapshot reads (DESIGN.md §7): zero locks server-side.
		"SnapOpen": rpc.Typed(func(a *proto.ClientArgs) (*proto.SnapOpenReply, error) {
			snap, stamp, err := s.SnapOpen(a.Client)
			return &proto.SnapOpenReply{Snap: snap, Stamp: stamp}, err
		}),
		"SnapClose": rpc.Typed(func(a *proto.SnapCloseArgs) (*proto.Empty, error) {
			return empty, s.SnapClose(a.Client, a.Snap)
		}),
		"SnapFetchSeg": rpc.Typed(func(a *proto.SnapFetchArgs) (*proto.SegImage, error) {
			sl, ov, data, _, err := s.snapFetch(a.Snap, a.Seg) // encoded, never written: no clone
			return &proto.SegImage{Seg: a.Seg, Slotted: sl, Overflow: ov, Data: data}, err
		}),
		"Resolve": rpc.Typed(func(a *proto.ResolveArgs) (*proto.ResolveReply, error) {
			seg, slot, err := s.Resolve(a.DB, a.HeaderOff)
			return &proto.ResolveReply{Seg: seg, Slot: slot}, err
		}),
		"Lock": rpc.Typed(func(a *proto.LockArgs) (*proto.Empty, error) {
			return empty, s.Lock(a.Client, a.Tx, a.Seg, a.Mode)
		}),
		"LockObject": rpc.Typed(func(a *proto.LockObjectArgs) (*proto.Empty, error) {
			return empty, s.LockObject(a.Client, a.Tx, a.Seg, a.Slot, a.Mode)
		}),
		"Commit": rpc.Typed(func(a *proto.CommitArgs) (*proto.Empty, error) {
			return empty, s.Commit(a.Client, a.Tx, a.Segs)
		}),
		"Abort": rpc.Typed(func(a *proto.AbortArgs) (*proto.Empty, error) {
			return empty, s.Abort(a.Client, a.Tx)
		}),
		"Prepare": rpc.Typed(func(a *proto.CommitArgs) (*proto.Empty, error) {
			return empty, s.Prepare(a.Client, a.Tx, a.Segs)
		}),
		"Decide": rpc.Typed(func(a *proto.DecideArgs) (*proto.Empty, error) {
			return empty, s.Decide(a.Tx, a.Commit)
		}),
		"SegmentsOf": rpc.Typed(func(a *proto.SegmentsOfArgs) (*proto.SegmentsOfReply, error) {
			segs, err := s.SegmentsOf(a.DB, a.FileID)
			return &proto.SegmentsOfReply{Segs: segs}, err
		}),
		"Released": rpc.Typed(func(a *proto.ReleasedArgs) (*proto.Empty, error) {
			return empty, s.Released(a.Client, a.Segs)
		}),
		"CreateLarge": rpc.Typed(func(a *proto.CreateLargeArgs) (*proto.CreateLargeReply, error) {
			slot, err := s.CreateLarge(a.Client, a.Tx, a.Seg, a.Type, a.Content)
			return &proto.CreateLargeReply{Slot: slot}, err
		}),
		"AllocRun": rpc.Typed(func(a *proto.AllocRunArgs) (*proto.AllocRunReply, error) {
			areaID, start, granted, err := s.AllocRun(a.DB, a.NPages)
			return &proto.AllocRunReply{Area: areaID, Start: start, Granted: granted}, err
		}),
		"FreeRun": rpc.Typed(func(a *proto.RunArgs) (*proto.Empty, error) {
			return empty, s.FreeRun(a.DB, a.Area, a.Start)
		}),
		"ReadRun": rpc.Typed(func(a *proto.RunArgs) (*proto.Bytes, error) {
			d, err := s.ReadRun(a.DB, a.Area, a.Start, a.NPages)
			return &proto.Bytes{Data: d}, err
		}),
		"WriteRun": rpc.Typed(func(a *proto.RunArgs) (*proto.Empty, error) {
			return empty, s.WriteRun(a.DB, a.Area, a.Start, a.Data)
		}),
		"NameBind": rpc.Typed(func(a *proto.NameBindArgs) (*proto.Empty, error) {
			return empty, s.NameBind(a.DB, a.Name, a.OID)
		}),
		"NameLookup": rpc.Typed(func(a *proto.NameArgs) (*proto.NameLookupReply, error) {
			o, err := s.NameLookup(a.DB, a.Name)
			return &proto.NameLookupReply{OID: o}, err
		}),
		"NameUnbind": rpc.Typed(func(a *proto.NameArgs) (*proto.Empty, error) {
			return empty, s.NameUnbind(a.DB, a.Name)
		}),
		"NameRemoveOID": rpc.Typed(func(a *proto.NameRemoveOIDArgs) (*proto.Empty, error) {
			return empty, s.NameRemoveOID(a.DB, a.OID)
		}),
	}
	// Streaming scans: ScanStart/SnapScanStart plus the ScanCtl stream.
	serveScan(s, p, h)
	p.Serve(h)
}
