package nodeserver

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"bess/internal/client"
	"bess/internal/proto"
	"bess/internal/segment"
)

// TestCommitThroughNodeInvalidatesImage: what a committer ships is its own
// slices under the header it encoded before the server settled checksums, so
// the node must not serve it to the next local. A reference-carrying commit
// made the difference visible: the second session's fetch failed header
// verification.
func TestCommitThroughNodeInvalidatesImage(t *testing.T) {
	_, ns := env(t)
	w, err := client.Open(ns, "writer", "db", true)
	if err != nil {
		t.Fatal(err)
	}
	td, _ := w.RegisterType(nodeType)
	segA, _ := w.CreateSegment(1, 1, 2, -1)
	segB, _ := w.CreateSegment(1, 1, 2, -1)
	w.Begin()
	b, err := w.CreateObject(segB, td.ID, val(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.CreateObject(segA, td.ID, val(1))
	if err != nil {
		t.Fatal(err)
	}
	w.SetRoot("head", a)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// A second commit that only sets the reference: A's data section ships
	// again, its header carrying the checksum of the session's private bytes.
	w.Begin()
	objA, err := w.Deref(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := objA.SetRefField(0, b); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	r, err := client.Open(ns, "reader", "db", false)
	if err != nil {
		t.Fatal(err)
	}
	r.Begin()
	head, err := r.Root("head")
	if err != nil {
		t.Fatalf("second local session, root: %v", err)
	}
	next, err := head.RefField(0)
	if err != nil {
		t.Fatalf("second local session, reference field: %v", err)
	}
	objB, err := r.Deref(next)
	if err != nil {
		t.Fatalf("second local session, chased A -> B: %v", err)
	}
	var v [8]byte
	objB.Read(8, v[:])
	if got := binary.BigEndian.Uint64(v[:]); got != 2 {
		t.Fatalf("chased value = %d, want 2", got)
	}
	r.Commit()
}

// decodeFetched decodes and verifies a fetched image as a client would at
// fault-in.
func decodeFetched(t *testing.T, sl, ov, data []byte) *segment.Seg {
	t.Helper()
	dec, err := segment.DecodeSlotted(sl)
	if err != nil {
		t.Fatalf("fetched image: %v", err)
	}
	dec.Overflow, dec.Data = ov, data
	if err := dec.VerifySections(); err != nil {
		t.Fatalf("fetched image: %v", err)
	}
	return dec
}

// TestPrepareThroughNodePublishesNothing drives the node as two bare locals
// (no session to tidy up behind it): an image shipped with a prepare is
// undecided, and after the abort decision the next local must see the bytes
// from before the transaction — whether or not the preparer ever says
// Released.
func TestPrepareThroughNodePublishesNothing(t *testing.T) {
	_, ns := env(t)
	db, _, err := ns.OpenDB("db", true)
	if err != nil {
		t.Fatal(err)
	}
	creator, _ := ns.Hello("creator")
	key := publishSeg(t, ns, creator, db)
	ns.Disconnect(creator)
	a, _ := ns.Hello("a")
	overwrite := func(body []byte) proto.SegImage {
		t.Helper()
		sl, ov, data, err := ns.FetchSeg(a, key)
		if err != nil {
			t.Fatal(err)
		}
		seg := decodeFetched(t, sl, ov, data)
		if seg.Live(0) {
			err = seg.UpdateObject(0, body)
		} else {
			_, err = seg.CreateObject(0, body)
		}
		if err != nil {
			t.Fatal(err)
		}
		return proto.SegImage{Seg: key, Slotted: seg.EncodeSlotted(), Overflow: seg.Overflow, Data: seg.Data}
	}
	ship := func(img proto.SegImage, prepare bool) uint64 {
		t.Helper()
		txid, err := ns.NewTx()
		if err != nil {
			t.Fatal(err)
		}
		if err := ns.Lock(a, txid, key, proto.LockX); err != nil {
			t.Fatal(err)
		}
		if err := ns.Publish(a, txid, nil, []proto.SegImage{img}, prepare); err != nil {
			t.Fatal(err)
		}
		return txid
	}
	ship(overwrite([]byte("committed")), false)
	txid := ship(overwrite([]byte("undecided")), true)
	if err := ns.Decide(txid, false); err != nil {
		t.Fatal(err)
	}
	b, _ := ns.Hello("b")
	sl, ov, data, err := ns.FetchSeg(b, key)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeFetched(t, sl, ov, data).ObjectBytes(0); err != nil || !bytes.Equal(got, []byte("committed")) {
		t.Fatalf("after prepare and abort a second local reads %q (%v), want %q", got, err, "committed")
	}
}

// TestDeadLocalIsForgotten: a local application whose callback fails is gone.
// The node forgets it, so a segment only it held is revoked at once — by this
// writer and by every later one — instead of each waiting out RevokeTimeout.
func TestDeadLocalIsForgotten(t *testing.T) {
	_, ns := env(t)
	ns.RevokeTimeout = 2 * time.Second
	db, _, err := ns.OpenDB("db", true)
	if err != nil {
		t.Fatal(err)
	}
	creator, _ := ns.Hello("creator")
	key := publishSeg(t, ns, creator, db)
	ns.Disconnect(creator)
	dead, _ := ns.Hello("dead")
	calls := 0
	if err := ns.SetCallback(dead, func(proto.SegKey) (bool, error) {
		calls++
		return false, errors.New("connection reset")
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ns.FetchSeg(dead, key); err != nil {
		t.Fatal(err)
	}
	w, _ := ns.Hello("writer")
	start := time.Now()
	for i := 0; i < 3; i++ {
		txid, _ := ns.NewTx()
		if err := ns.Lock(w, txid, key, proto.LockX); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if err := ns.Abort(w, txid); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d >= ns.RevokeTimeout {
		t.Fatalf("three writes past a dead local took %v: each waited out the revocation timeout", d)
	}
	if calls != 1 {
		t.Fatalf("the dead local was called back %d times, want 1", calls)
	}
	if err := ns.SetCallback(dead, nil); err == nil {
		t.Fatal("the dead local is still registered")
	}
	// Disconnect is the same forgetting, asked for.
	gone, _ := ns.Hello("leaving")
	if _, _, _, err := ns.FetchSeg(gone, key); err != nil {
		t.Fatal(err)
	}
	ns.Disconnect(gone)
	if err := ns.SetCallback(gone, nil); err == nil {
		t.Fatal("a disconnected local is still registered")
	}
}

// publishSeg creates a segment of file 1 in db through conn for client: one
// run pair reserved to it and published by a commit of its own.
func publishSeg(t *testing.T, conn proto.Conn, client, db uint32) proto.SegKey {
	t.Helper()
	runs, err := conn.ReserveSegments(client, db, -1, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	txid, err := conn.NewTx()
	if err != nil {
		t.Fatal(err)
	}
	c := proto.Created{Reserved: runs[0], FileID: 1}
	if err := conn.Publish(client, txid, []proto.Created{c}, nil, false); err != nil {
		t.Fatal(err)
	}
	return c.Seg
}
