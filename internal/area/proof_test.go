package area

import (
	"bytes"
	"errors"
	"testing"

	"bess/internal/page"
	"bess/internal/wal"
)

// proofsOf logs one commit of a whole-page image of each of ids and returns
// the proofs the log's replay hands out for them, in the order of ids.
func proofsOf(t *testing.T, ids ...page.ID) []wal.Logged {
	t.Helper()
	l := wal.NewMem()
	rec := &wal.Record{Type: wal.TCommit, Tx: 1}
	for _, id := range ids {
		rec.Changes = append(rec.Changes, wal.Change{Page: id, After: bytes.Repeat([]byte{byte(id.Page)}, page.Size)})
	}
	if _, err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(0); err != nil {
		t.Fatal(err)
	}
	hist, err := wal.ReplayPages(l, wal.FirstLSN(), func(page.LSN, *wal.Change) bool { return true }, nil)
	if err != nil {
		t.Fatal(err)
	}
	proofs := make([]wal.Logged, len(ids))
	for i, id := range ids {
		proofs[i] = hist[id].Last
	}
	return proofs
}

// TestWriteRunTakesItsProofs: WriteRun writes the run its proofs name and
// refuses, before it touches the store, a zero proof, a proof of another
// area's page, proofs of pages that are not consecutive, and data whose
// length is not one page a proof.
func TestWriteRunTakesItsProofs(t *testing.T) {
	a, err := NewMem(3, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	at := func(p page.No) page.ID { return page.ID{Area: 3, Page: p} }
	two := bytes.Repeat([]byte{0xA5}, 2*page.Size)
	if err := a.WriteRun(proofsOf(t, at(8), at(9)), two); err != nil {
		t.Fatalf("a run on its proofs: %v", err)
	}
	got := make([]byte, 2*page.Size)
	if err := a.ReadRun(8, got); err != nil || !bytes.Equal(got, two) {
		t.Fatalf("the run did not reach pages 8 and 9 (%v)", err)
	}

	for _, c := range []struct {
		name   string
		proofs []wal.Logged
		data   []byte
		want   error
	}{
		{"zero proof", []wal.Logged{{}}, make([]byte, page.Size), wal.ErrNotLogged},
		{"zero proof in a run", append(proofsOf(t, at(8)), wal.Logged{}), make([]byte, 2*page.Size), wal.ErrNotLogged},
		{"another area's page", proofsOf(t, page.ID{Area: 4, Page: 8}), make([]byte, page.Size), ErrForeignProof},
		{"not consecutive", proofsOf(t, at(8), at(10)), make([]byte, 2*page.Size), wal.ErrNotConsecutive},
		{"another area mid-run", proofsOf(t, at(8), page.ID{Area: 4, Page: 9}), make([]byte, 2*page.Size), wal.ErrNotConsecutive},
		{"short data", proofsOf(t, at(8), at(9)), make([]byte, page.Size), nil},
		{"long data", proofsOf(t, at(8)), make([]byte, 2*page.Size), nil},
		{"no proofs", nil, make([]byte, page.Size), nil},
	} {
		calls := a.Stats().WriteCalls
		err := a.WriteRun(c.proofs, c.data)
		if err == nil || c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: WriteRun = %v, want %v", c.name, err, c.want)
		}
		if a.Stats().WriteCalls != calls {
			t.Errorf("%s: the refused write reached the store", c.name)
		}
	}
	if err := a.ReadRun(8, got); err != nil || !bytes.Equal(got, two) {
		t.Fatalf("a refused write changed pages 8 and 9 (%v)", err)
	}
}
