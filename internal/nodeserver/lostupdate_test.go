package nodeserver

import (
	"encoding/binary"
	"testing"
	"time"

	"bess/internal/client"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/server"
	"bess/internal/swizzle"
)

// TestFetchDuringXHoldIsNotLost: objects a and b share a segment. Session 1
// writes a under X; session 2 derefs b meanwhile, which fetches the segment,
// and then writes b once session 1 has committed. A fetch is a lock request
// that waits for session 1's X, so session 2's copy is the committed image
// and its commit ships session 1's update with its own: a third session reads
// a = 100. Served direct, over the wire, and through a node server.
func TestFetchDuringXHoldIsNotLost(t *testing.T) {
	tiers := map[string]func(srv *server.Server, ns *NodeServer) proto.Conn{
		"server": func(srv *server.Server, _ *NodeServer) proto.Conn { return srv },
		"remote": func(srv *server.Server, _ *NodeServer) proto.Conn {
			cEnd, sEnd := rpc.Pipe()
			server.ServePeer(srv, sEnd)
			t.Cleanup(func() { cEnd.Close() })
			return client.NewRemote(cEnd)
		},
		"node": func(_ *server.Server, ns *NodeServer) proto.Conn { return ns },
	}
	for name, dial := range tiers {
		t.Run(name, func(t *testing.T) {
			srv, ns := env(t)
			open := func(who string, create bool) *client.Session {
				t.Helper()
				s, err := client.Open(dial(srv, ns), who, "db", create)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			value := func(s *client.Session, root string) (*swizzle.Object, uint64) {
				t.Helper()
				obj, err := s.Root(root)
				if err != nil {
					t.Fatalf("%s: %v", root, err)
				}
				var buf [8]byte
				if err := obj.Read(8, buf[:]); err != nil {
					t.Fatal(err)
				}
				return obj, binary.BigEndian.Uint64(buf[:])
			}
			write := func(obj *swizzle.Object, v uint64) {
				t.Helper()
				var buf [8]byte
				binary.BigEndian.PutUint64(buf[:], v)
				if err := obj.Write(8, buf[:]); err != nil {
					t.Fatal(err)
				}
			}

			s0 := open("setup", true)
			td, _ := s0.RegisterType(nodeType)
			seg, err := s0.CreateSegment(1, 1, 2, -1)
			if err != nil {
				t.Fatal(err)
			}
			s0.Begin()
			for _, root := range []string{"a", "b"} {
				addr, err := s0.CreateObject(seg, td.ID, val(1))
				if err != nil {
					t.Fatal(err)
				}
				if err := s0.SetRoot(root, addr); err != nil {
					t.Fatal(err)
				}
			}
			if err := s0.Commit(); err != nil {
				t.Fatal(err)
			}

			s1, s2 := open("s1", false), open("s2", false)
			s1.Begin()
			a, _ := value(s1, "a")
			write(a, 100) // X on the segment
			type deref struct {
				obj *swizzle.Object
				err error
			}
			fetched := make(chan deref, 1)
			go func() {
				if err := s2.Begin(); err != nil {
					fetched <- deref{nil, err}
					return
				}
				obj, err := s2.Root("b")
				fetched <- deref{obj, err}
			}()
			time.Sleep(20 * time.Millisecond) // session 2's fetch is under way, or has answered
			if err := s1.Commit(); err != nil {
				t.Fatal(err)
			}
			d := <-fetched
			if d.err != nil {
				t.Fatalf("session 2's deref of b: %v", d.err)
			}
			write(d.obj, 200)
			if err := s2.Commit(); err != nil {
				t.Fatal(err)
			}

			s3 := open("s3", false)
			s3.Begin()
			if _, v := value(s3, "a"); v != 100 {
				t.Fatalf("a = %d after both commits, want session 1's 100: its update was lost", v)
			}
			if _, v := value(s3, "b"); v != 200 {
				t.Fatalf("b = %d after both commits, want session 2's 200", v)
			}
			s3.Commit()
		})
	}
}
