package client

import (
	"sync/atomic"
	"testing"
	"time"

	"bess/internal/nodeserver"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/server"
	"bess/internal/swizzle"
)

// watchedConn counts the Released calls a session makes through it and
// signals each callback the session refuses.
type watchedConn struct {
	proto.Conn
	released atomic.Int64
	refused  chan struct{}
}

func watch(c proto.Conn) *watchedConn {
	return &watchedConn{Conn: c, refused: make(chan struct{}, 1)}
}

func (w *watchedConn) Released(client uint32, segs []proto.SegKey) error {
	w.released.Add(1)
	return w.Conn.Released(client, segs)
}

func (w *watchedConn) SetCallback(client uint32, cb func(proto.SegKey) (bool, error)) error {
	return w.Conn.SetCallback(client, func(seg proto.SegKey) (bool, error) {
		refused, err := cb(seg)
		if refused {
			select {
			case w.refused <- struct{}{}:
			default:
			}
		}
		return refused, err
	})
}

// TestRefusedCallbackIsAnsweredOnce: a reader's transaction holds its cached
// copy of a segment for 50 ms while a writer asks for X on it. The writer's
// revoke asks the reader once, is refused once, and waits: the reader's
// commit drops the copy and names it in one Released, which lets the writer
// through. Asking again on a timer would show here as more callbacks and
// refusals. The reader sits behind each kind of Conn; through a node server
// the writer is another local of the node, or a client of the upstream whose
// callback reaches the node's locals through its own.
func TestRefusedCallbackIsAnsweredOnce(t *testing.T) {
	// A setup is where the reader and the writer sit, what the upstream
	// server's copy table must count for the writer's lock, and, through a
	// node server, the callbacks its locals' table made.
	type setup struct {
		reader, writer proto.Conn
		upCallbacks    int64
		upRefusals     int64
		localCallbacks func() int64
	}
	pipe := func(srv *server.Server) *Remote {
		cEnd, sEnd := rpc.Pipe()
		server.ServePeer(srv, sEnd)
		return NewRemote(cEnd)
	}
	node := func(t *testing.T, srv *server.Server) *nodeserver.NodeServer {
		ns, err := nodeserver.New(pipe(srv), "node", 8, 16)
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}
	setups := map[string]func(t *testing.T, srv *server.Server) setup{
		"server": func(t *testing.T, srv *server.Server) setup {
			return setup{reader: srv, writer: srv, upCallbacks: 1, upRefusals: 1}
		},
		"remote": func(t *testing.T, srv *server.Server) setup {
			return setup{reader: pipe(srv), writer: pipe(srv), upCallbacks: 1, upRefusals: 1}
		},
		// The node's X is the upstream's to grant: only its locals are called
		// back.
		"node/local writer": func(t *testing.T, srv *server.Server) setup {
			ns := node(t, srv)
			return setup{reader: ns, writer: ns, localCallbacks: func() int64 { return ns.Snapshot().LocalCallbacks }}
		},
		// The upstream calls the node back once, and the node, not the
		// upstream, waits for its refusing local.
		"node/upstream writer": func(t *testing.T, srv *server.Server) setup {
			ns := node(t, srv)
			return setup{reader: ns, writer: srv, upCallbacks: 1, localCallbacks: func() int64 { return ns.Snapshot().LocalCallbacks }}
		},
	}
	for name, mk := range setups {
		t.Run(name, func(t *testing.T) {
			srv := server.NewMem(1)
			defer srv.Close()
			su := mk(t, srv)
			rc := watch(su.reader)
			reader, err := Open(rc, "reader", "testdb", true)
			if err != nil {
				t.Fatal(err)
			}
			writer, err := Open(su.writer, "writer", "testdb", true)
			if err != nil {
				t.Fatal(err)
			}
			td, err := writer.RegisterType(nodeType)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reader.RegisterType(nodeType); err != nil {
				t.Fatal(err)
			}
			seg, err := writer.CreateSegment(1, 1, 2, -1)
			if err != nil {
				t.Fatal(err)
			}
			if err := writer.Begin(); err != nil {
				t.Fatal(err)
			}
			addr, err := writer.CreateObject(seg, td.ID, nodeBytes(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := writer.Commit(); err != nil {
				t.Fatal(err)
			}

			if err := reader.Begin(); err != nil {
				t.Fatal(err)
			}
			if got := readAt(t, reader, seg); got != 1 {
				t.Fatalf("the reader reads %d, want 1", got)
			}
			up, locals := srv.Snapshot(), int64(0)
			if su.localCallbacks != nil {
				locals = su.localCallbacks()
			}
			wrote := make(chan error, 1)
			go func() {
				err := writer.Begin()
				if err == nil {
					var obj *swizzle.Object
					if obj, err = writer.Deref(addr); err == nil {
						err = obj.Write(0, nodeBytes(2))
					}
				}
				if err == nil {
					err = writer.Commit()
				}
				wrote <- err
			}()
			<-rc.refused
			time.Sleep(50 * time.Millisecond) // the reader's transaction goes on using its copy
			select {
			case err := <-wrote:
				t.Fatalf("the writer got through (%v) while the reader's copy was in use", err)
			default:
			}
			if err := reader.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := <-wrote; err != nil {
				t.Fatalf("the writer, once the reader committed: %v", err)
			}
			after := srv.Snapshot()
			if cb, ref := after.Callbacks-up.Callbacks, after.CallbackRefusals-up.CallbackRefusals; cb != su.upCallbacks || ref != su.upRefusals {
				t.Fatalf("the writer's lock cost %d callbacks and %d refusals at the server, want %d and %d", cb, ref, su.upCallbacks, su.upRefusals)
			}
			if su.localCallbacks != nil {
				if cb := su.localCallbacks() - locals; cb != 1 {
					t.Fatalf("the node called its locals back %d times, want 1", cb)
				}
			}
			if st := reader.Snapshot(); st.Refusals != 1 {
				t.Fatalf("the reader refused %d callbacks, want 1", st.Refusals)
			}
			if n := rc.released.Load(); n != 1 {
				t.Fatalf("the reader sent %d Released, want 1", n)
			}
			if err := reader.Begin(); err != nil {
				t.Fatal(err)
			}
			if got := readAt(t, reader, seg); got != 2 {
				t.Fatalf("the reader reads %d after the writer committed 2: its copy was not dropped", got)
			}
			if err := reader.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// readAt reads the value of seg's slot 0 in s's open transaction.
func readAt(t *testing.T, s *Session, seg proto.SegKey) uint64 {
	t.Helper()
	addr, err := s.AddrOfSlot(seg, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := s.Deref(addr)
	if err != nil {
		t.Fatal(err)
	}
	return nodeVal(obj)
}
