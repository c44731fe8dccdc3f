package nodeserver

import (
	"bytes"
	"sync"
	"testing"

	"bess/internal/client"
	"bess/internal/proto"
	"bess/internal/server"
)

// fetchCounter is an upstream that counts the FetchSeg calls it passes on, by
// segment.
type fetchCounter struct {
	proto.Conn
	mu sync.Mutex
	n  map[proto.SegKey]int
}

func (c *fetchCounter) FetchSeg(client uint32, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	c.mu.Lock()
	c.n[seg]++
	c.mu.Unlock()
	return c.Conn.FetchSeg(client, seg)
}

// TestLargeObjectFetchedOnceForTheNode: a large object's content is a segment
// like any other, so the node caches it: two locals reading the object cost
// one upstream FetchSeg of the object's segment and one of its content's.
func TestLargeObjectFetchedOnceForTheNode(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	w, err := client.Open(srv, "writer", "db", true)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := w.CreateSegment(1, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("read by two locals "), 1000)
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	addr, err := w.CreateLarge(seg, 0, content)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := w.Deref(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	up := &fetchCounter{Conn: srv, n: make(map[proto.SegKey]int)}
	ns, err := New(up, "node", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		l, err := client.Open(ns, name, "db", false)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Begin(); err != nil {
			t.Fatal(err)
		}
		at, err := l.AddrOfSlot(seg, obj.Slot)
		if err != nil {
			t.Fatal(err)
		}
		o, err := l.Deref(at)
		var got []byte
		if err == nil {
			got, err = o.Bytes()
		}
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("local %s reads %d bytes (%v), want %d", name, len(got), err, len(content))
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	up.mu.Lock()
	defer up.mu.Unlock()
	if len(up.n) != 2 || up.n[seg] != 1 {
		t.Fatalf("upstream fetches by segment %v: want the object's segment %v and its content's, once each", up.n, seg)
	}
	for key, n := range up.n {
		if n != 1 {
			t.Errorf("segment %v fetched upstream %d times", key, n)
		}
	}
}
