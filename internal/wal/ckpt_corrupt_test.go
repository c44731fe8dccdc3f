package wal

import (
	"bytes"
	"testing"

	"bess/internal/page"
)

// ckptCorruptImage builds a log with two checkpoints: tx1 commits an update
// to page 1, checkpoint #1, tx2 commits an update to page 2, checkpoint #2
// last. Returns the durable image, both checkpoint LSNs, the byte offset
// one past checkpoint #2, and the expected post-recovery page contents.
func ckptCorruptImage(t *testing.T) (img []byte, ckpt1, ckpt2, end page.LSN, want map[page.ID][]byte) {
	t.Helper()
	l := NewMem()
	defer l.Close()
	want = make(map[page.ID][]byte)
	pg := func(n page.No) page.ID { return page.ID{Area: 3, Page: n} }
	fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, page.Size) }
	zero := make([]byte, page.Size)

	commitUpdate := func(tx uint64, id page.ID, after []byte) {
		lsn, err := l.Append(&Record{Type: TUpdate, Tx: tx, Page: id, Off: 0, Before: zero, After: after})
		if err != nil {
			t.Fatal(err)
		}
		clsn, err := l.Append(&Record{Type: TCommit, Tx: tx, PrevLSN: lsn})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(clsn); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(&Record{Type: TEnd, Tx: tx}); err != nil {
			t.Fatal(err)
		}
		want[id] = after
	}

	commitUpdate(1, pg(1), fill(0x11))
	var err error
	if ckpt1, err = Checkpoint(l, []CkptPage{{Page: pg(1), RecLSN: firstLSN}}); err != nil {
		t.Fatal(err)
	}
	commitUpdate(2, pg(2), fill(0x22))
	if ckpt2, err = Checkpoint(l,
		[]CkptPage{{Page: pg(1), RecLSN: firstLSN}, {Page: pg(2), RecLSN: firstLSN}}); err != nil {
		t.Fatal(err)
	}
	end = l.NextLSN()
	if err := l.Flush(end); err != nil {
		t.Fatal(err)
	}
	return l.DurableBytes(), ckpt1, ckpt2, end, want
}

// TestCheckpointCorruptionFallsBack garbage-fills the most recent
// checkpoint record at every byte boundary (mirroring the torn-tail
// sweeps): recovery must never consume the broken record — it falls back
// to the previous checkpoint and reaches exactly the clean-run state.
func TestCheckpointCorruptionFallsBack(t *testing.T) {
	img, ckpt1, ckpt2, end, want := ckptCorruptImage(t)

	checkState := func(t *testing.T, p *memPager) {
		t.Helper()
		buf := make([]byte, page.Size)
		for id, w := range want {
			if err := p.ReadPage(id, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, w) {
				t.Fatalf("page %v diverges from the clean-run state", id)
			}
		}
	}

	// Clean baseline: recovery analyzes from checkpoint #2.
	l, err := OpenMemFrom(append([]byte(nil), img...))
	if err != nil {
		t.Fatal(err)
	}
	p := newMemPager()
	st, _, err := redoOn(l, p)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if st.CheckpointLSN != ckpt2 {
		t.Fatalf("clean recovery used checkpoint at %d, want %d", st.CheckpointLSN, ckpt2)
	}
	checkState(t, p)

	recLen := int(end - ckpt2)
	for off := 0; off < recLen; off++ {
		broken := append([]byte(nil), img...)
		// Garbage, not a flip: splitmix-ish bytes so every boundary sees a
		// different wrong value (and never the original).
		broken[int(ckpt2)+off] ^= byte(0x9E+off*0x61) | 1
		l, err := OpenMemFrom(broken)
		if err != nil {
			t.Fatalf("off %d: reopen: %v", off, err)
		}
		p := newMemPager()
		st, _, err := redoOn(l, p)
		if err != nil {
			t.Fatalf("off %d: recover: %v", off, err)
		}
		if st.CheckpointLSN == ckpt2 {
			t.Fatalf("off %d: recovery consumed the corrupt checkpoint record", off)
		}
		if st.CheckpointLSN != ckpt1 {
			t.Fatalf("off %d: recovery used checkpoint at %d, want fallback to %d", off, st.CheckpointLSN, ckpt1)
		}
		checkState(t, p)
		l.Close()
	}
}
