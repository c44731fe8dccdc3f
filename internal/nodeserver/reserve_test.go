package nodeserver

import (
	"errors"
	"slices"
	"testing"

	"bess/internal/proto"
)

// TestLocalsReservationsStayApart: upstream every run pair a node reserves is
// the node's, so the node itself keeps the locals apart. A local cannot
// publish a segment made of runs another local holds, or a lone run another
// local holds for a section to move to — the refusal changes nothing, and the
// holder publishes them after — and
// the pairs a local leaves unpublished when it goes away serve the next
// local's ReserveSegments of the same geometry, with no upstream message.
func TestLocalsReservationsStayApart(t *testing.T) {
	srv, ns := env(t)
	db, _, err := ns.OpenDB("db", true)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ns.Hello("a")
	b, _ := ns.Hello("b")
	runs, err := ns.ReserveSegments(a, db, -1, 1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	lone, err := ns.ReserveSegments(a, db, -1, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	theirs := proto.Created{Reserved: runs[0], FileID: 1}
	theirRun := proto.Created{Reserved: lone[0]}
	txid, _ := ns.NewTx()
	for _, c := range []proto.Created{theirs, theirRun} {
		if err := ns.Publish(b, txid, []proto.Created{c}, nil, false); !errors.Is(err, proto.ErrNotReserved) || !proto.Refused(err) {
			t.Fatalf("b publishing a's runs %v: %v, want a refusal with ErrNotReserved", c.Seg, err)
		}
	}
	if err := ns.Abort(b, txid); err != nil {
		t.Fatal(err)
	}
	txid, _ = ns.NewTx()
	if err := ns.Publish(a, txid, []proto.Created{theirs, theirRun}, nil, false); err != nil {
		t.Fatalf("a publishing its own runs after b was refused: %v", err)
	}
	if _, err := srv.SegInfo(theirs.Seg); err != nil {
		t.Fatalf("a's published segment: %v", err)
	}

	ns.Disconnect(a)
	msgs := srv.Snapshot().Messages
	got, err := ns.ReserveSegments(b, db, -1, 1, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d := srv.Snapshot().Messages - msgs; d != 0 {
		t.Errorf("b's reservation cost %d upstream messages, want 0: a left 3 pairs of its geometry", d)
	}
	byStart := func(a, b proto.Reserved) int { return int(a.Seg.Start - b.Seg.Start) }
	left := slices.Clone(runs[1:])
	slices.SortFunc(got, byStart)
	slices.SortFunc(left, byStart)
	if !slices.Equal(got, left) {
		t.Fatalf("b was handed %v, want the pairs a left unpublished, %v", got, runs[1:])
	}
	txid, _ = ns.NewTx()
	mine := proto.Created{Reserved: got[0], FileID: 1}
	if err := ns.Publish(b, txid, []proto.Created{mine}, nil, false); err != nil {
		t.Fatalf("b publishing a pooled pair: %v", err)
	}
	if _, err := ns.ReserveSegments(a, db, -1, 1, 2, 1); err == nil {
		t.Fatal("a local that is gone was reserved runs")
	}
	if segs, err := srv.SegmentsOf(db, 1); err != nil || len(segs) != 2 {
		t.Fatalf("the server lists %v (%v), want the two published segments", segs, err)
	}
}
