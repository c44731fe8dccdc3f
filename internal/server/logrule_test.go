package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bess/internal/cache"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
	"bess/internal/wal"
)

// Tests for the byte-range logging rule (internal/tx/logging.go) as the
// server uses it: what a commit costs in log bytes, and that repair, as-of
// reconstruction and restart still rebuild exact images from ranges.

// decodeSeg fetches nothing: it decodes a fetched image into a segment with
// its sections attached.
func decodeSeg(t *testing.T, sl, ov, data []byte) *segment.Seg {
	t.Helper()
	dec, err := segment.DecodeSlotted(sl)
	if err != nil {
		t.Fatal(err)
	}
	dec.Overflow, dec.Data = ov, data
	return dec
}

// objects reads every live object of a decoded segment.
func objects(t *testing.T, dec *segment.Seg) [][]byte {
	t.Helper()
	var out [][]byte
	for _, slot := range dec.LiveSlots() {
		b, err := dec.ObjectBytes(slot)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]byte(nil), b...))
	}
	return out
}

// commitImage commits img as its own transaction.
func commitImage(t *testing.T, s *Server, img proto.SegImage) {
	t.Helper()
	cl, _ := s.Hello("c")
	txid, _ := s.NewTx()
	if err := s.Lock(cl, txid, img.Seg, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(cl, txid, []proto.SegImage{img}); err != nil {
		t.Fatal(err)
	}
}

// TestLogVolumeBudget is the tier-1 tripwire against a slide back to
// whole-page logging: a committed 128-byte overwrite of pages that already
// have their anchors logs a few hundred bytes (two byte-range records — the
// object's bytes and the header's checksums — plus commit and end), and a
// first touch logs two anchors: a page each plus the same few hundred bytes of
// undo ranges, not the two pages each that an anchor used to cost.
func TestLogVolumeBudget(t *testing.T) {
	const (
		commitEnd  = 50
		deltaBound = 600
		anchors    = 2*page.Size + deltaBound // two whole-page redo halves, range-sized undo halves
	)
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, bytes.Repeat([]byte{1}, 128)) // anchors the slotted and the data page
	logged := func(fill byte) int {
		img := overwriteImage(t, s, key, bytes.Repeat([]byte{fill}, 128))
		from := s.log.NextLSN()
		commitImage(t, s, img)
		return int(s.log.NextLSN() - from)
	}
	if n := logged(2); n > deltaBound {
		t.Fatalf("128-byte overwrite of anchored pages logged %d bytes, budget %d", n, deltaBound)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := logged(3); n > anchors+commitEnd {
		t.Fatalf("first touch after a checkpoint logged %d bytes, more than two anchors with range-sized undo (%d)", n, anchors+commitEnd)
	} else if n <= deltaBound {
		t.Fatalf("first touch after a checkpoint logged %d bytes: no anchor", n)
	}
	if n := logged(4); n > deltaBound {
		t.Fatalf("second touch after a checkpoint logged %d bytes, budget %d", n, deltaBound)
	}
}

// TestAsOfAcrossRangeAnchor: an as-of image rebuilt from the disk image and the
// log's undo halves alone is byte-exact at every stamp of a history that holds
// every shape of undo half — the zero before-images of a first commit into
// fresh data pages, the range-sized undo of an anchor, plain byte ranges, and
// a rolled-back overwrite's — back to the stamp before the segment's first
// commit, where its data pages are all zero again.
func TestAsOfAcrossRangeAnchor(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	type past struct {
		stamp        page.LSN
		sl, ov, data []byte
	}
	var key proto.SegKey
	var history []past
	record := func() {
		t.Helper()
		sl, ov, data, err := s.FetchSeg(0, key)
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, past{s.txm.CommitStamp(), bytes.Clone(sl), bytes.Clone(ov), bytes.Clone(data)})
	}
	body := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 300) }

	var img proto.SegImage
	key, img = mkSegImage(t, s, db, body(1))
	record() // created, nothing committed: the data pages are fresh
	if !bytes.Equal(history[0].data, make([]byte, len(history[0].data))) {
		t.Fatal("a created segment's data pages are not all zero")
	}
	commitImage(t, s, img) // fresh-page records: zero before-images
	record()
	commitImage(t, s, overwriteImage(t, s, key, body(2))) // byte ranges
	record()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitImage(t, s, overwriteImage(t, s, key, body(3))) // anchors: whole-page redo, range undo
	record()
	cl, _ := s.Hello("c")
	txid, _ := s.NewTx()
	if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := s.Prepare(cl, txid, []proto.SegImage{overwriteImage(t, s, key, body(4))}); err != nil {
		t.Fatal(err)
	}
	if err := s.Decide(txid, false); err != nil { // rolled back: CLRs over the ranges
		t.Fatal(err)
	}
	commitImage(t, s, overwriteImage(t, s, key, body(5)))
	record()

	var shapes struct{ zeroBefore, rangeAnchor int }
	s.log.Flush(0)
	s.log.Iterate(0, func(_ page.LSN, r *wal.Record) error {
		if r.Type == wal.TUpdate && r.Footprint().ZeroBefore > 0 {
			shapes.zeroBefore++
		}
		if r.Type == wal.TUpdate && r.WholePage() && len(r.Before) < page.Size/2 {
			shapes.rangeAnchor++
		}
		return nil
	})
	if shapes.zeroBefore == 0 || shapes.rangeAnchor == 0 {
		t.Fatalf("history lacks a shape: %+v", shapes)
	}
	for i, h := range history {
		_, sl, ov, data, err := s.readImage(key, secAll, view{t: h.stamp, rebuild: true})
		if err != nil {
			t.Fatalf("as of stamp %d: %v", h.stamp, err)
		}
		if !bytes.Equal(sl, h.sl) || !bytes.Equal(ov, h.ov) || !bytes.Equal(data, h.data) {
			t.Fatalf("as of stamp %d (history %d of %d): rebuilt image differs from the one read then (slotted %v, overflow %v, data %v)",
				h.stamp, i, len(history), bytes.Equal(sl, h.sl), bytes.Equal(ov, h.ov), bytes.Equal(data, h.data))
		}
	}
}

// TestLogAndApplyShortTail: data that ends inside a page changes only its own
// bytes — the record's range stays inside them and the page's tail survives.
func TestLogAndApplyShortTail(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	aid, start, _, err := s.AllocRun(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	fill := bytes.Repeat([]byte{0xEE}, 2*page.Size)
	if err := s.WriteRun(db, aid, start, fill); err != nil {
		t.Fatal(err)
	}
	tr := s.txm.Begin()
	staged := s.vs.StageUpdate(tr.ID(), cache.VKey{Area: aid, Start: start}, cache.VImage{}, false)
	data := bytes.Repeat([]byte{0x11}, page.Size+100)
	if err := s.overwriteRun(staged, tr, aid, page.No(start), data, new([]byte)); err != nil { // anchors both pages
		t.Fatal(err)
	}
	copy(data[page.Size+10:], "short")
	from := s.log.NextLSN()
	if err := s.overwriteRun(staged, tr, aid, page.No(start), data, new([]byte)); err != nil {
		t.Fatal(err)
	}
	rec, err := func() (*wal.Record, error) {
		if err := s.log.Flush(0); err != nil {
			return nil, err
		}
		return s.log.ReadRecord(from)
	}()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Page.Page != page.No(start)+1 || rec.Off != 10 || string(rec.After) != "short" {
		t.Fatalf("short-tail record: page %v off %d after %q", rec.Page, rec.Off, rec.After)
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadRun(db, aid, start, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), data...), fill[len(data):]...)
	if !bytes.Equal(got, want) {
		t.Fatal("short-tail write disturbed bytes outside the data")
	}
}

// copyDir copies the regular files of src into a fresh directory: the durable
// images a process crash would leave (page writes reach the area files
// directly, the log file holds what was forced).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestLoggingRuleProperty drives a random sequence of in-page overwrites,
// rolled-back overwrites, checkpoints and reopens against a shadow model, and
// after every step checks the three consumers of update records:
//
//	(i)   repair: a deliberately rotted slotted or data page is rebuilt from
//	      the log and every object reads back as the model has it;
//	(ii)  as-of: the image at earlier commit stamps, rebuilt from the disk
//	      image and the log's undo ranges alone (the trimmed-version-chain
//	      path), equals the model as it was at that stamp;
//	(iii) restart: a server opened on a copy of the durable files recovers to
//	      the model.
func TestLoggingRuleProperty(t *testing.T) {
	steps := 60
	if testing.Short() {
		steps = 20
	}
	rng := rand.New(rand.NewSource(13))
	dir := t.TempDir()
	s, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	db, _, err := s.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}

	const nSegs, nObjs, objSize = 3, 6, 200
	var keys []proto.SegKey
	model := make(map[proto.SegKey][][]byte)
	for i := 0; i < nSegs; i++ {
		fid, _ := s.NewFileID(db)
		key, err := createSeg(s, db, fid, 1, 2, -1)
		if err != nil {
			t.Fatal(err)
		}
		sl, ov, data, err := s.FetchSeg(0, key)
		if err != nil {
			t.Fatal(err)
		}
		dec := decodeSeg(t, sl, ov, data)
		for o := 0; o < nObjs; o++ {
			body := make([]byte, objSize)
			rng.Read(body)
			if _, err := dec.CreateObject(0, body); err != nil {
				t.Fatal(err)
			}
			model[key] = append(model[key], body)
		}
		commitImage(t, s, proto.SegImage{Seg: key, Slotted: dec.EncodeSlotted(), Overflow: dec.Overflow, Data: dec.Data})
		keys = append(keys, key)
	}
	snapshotModel := func() map[proto.SegKey][][]byte {
		c := make(map[proto.SegKey][][]byte, len(model))
		for k, objs := range model {
			for _, o := range objs {
				c[k] = append(c[k], append([]byte(nil), o...))
			}
		}
		return c
	}
	type past struct {
		stamp page.LSN
		state map[proto.SegKey][][]byte
	}
	history := []past{{s.txm.CommitStamp(), snapshotModel()}}

	// overwrite returns an image of key with 1–2 objects partly overwritten,
	// and what the model becomes if it commits.
	overwrite := func(key proto.SegKey) (proto.SegImage, [][]byte) {
		sl, ov, data, err := s.FetchSeg(0, key)
		if err != nil {
			t.Fatal(err)
		}
		dec := decodeSeg(t, sl, ov, data)
		next := make([][]byte, len(model[key]))
		copy(next, model[key])
		for n := 1 + rng.Intn(2); n > 0; n-- {
			o := rng.Intn(nObjs)
			body := append([]byte(nil), next[o]...)
			off := rng.Intn(objSize)
			rng.Read(body[off:min(objSize, off+1+rng.Intn(64))])
			if err := dec.UpdateObject(dec.LiveSlots()[o], body); err != nil {
				t.Fatal(err)
			}
			next[o] = body
		}
		return proto.SegImage{Seg: key, Slotted: dec.EncodeSlotted(), Overflow: dec.Overflow, Data: dec.Data}, next
	}
	same := func(what string, got [][]byte, want [][]byte) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d objects, want %d", what, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: object %d differs from the model", what, i)
			}
		}
	}

	for step := 0; step < steps; step++ {
		key := keys[rng.Intn(nSegs)]
		what := ""
		switch r := rng.Intn(10); {
		case r < 5:
			what = "commit"
			img, next := overwrite(key)
			commitImage(t, s, img)
			model[key] = next
			history = append(history, past{s.txm.CommitStamp(), snapshotModel()})
		case r < 7:
			what = "abort"
			img, _ := overwrite(key)
			cl, _ := s.Hello("c")
			txid, _ := s.NewTx()
			if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
				t.Fatal(err)
			}
			// Phase 1 logs and applies the image; the decision rolls it back.
			if err := s.Prepare(cl, txid, []proto.SegImage{img}); err != nil {
				t.Fatal(err)
			}
			if err := s.Decide(txid, false); err != nil {
				t.Fatal(err)
			}
		case r < 9:
			what = "checkpoint"
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		default:
			what = "reopen"
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(dir, 1); err != nil {
				t.Fatal(err)
			}
		}
		at := fmt.Sprintf("step %d (%s)", step, what)

		// (i) rot one page of one segment, then read everything.
		victim := keys[rng.Intn(nSegs)]
		sl, _, _, err := s.FetchSeg(0, victim)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		hdr := decodeSeg(t, sl, nil, nil).Hdr
		repaired := s.ScrubStatus().Repaired
		if rng.Intn(2) == 0 {
			flipPageByte(t, s, victim.Area, page.No(victim.Start), rng.Intn(page.Size))
		} else {
			flipPageByte(t, s, uint32(hdr.DataArea), hdr.DataStart+page.No(rng.Intn(int(hdr.DataPages))), rng.Intn(page.Size))
		}
		for _, k := range keys {
			sl, ov, data, err := s.FetchSeg(0, k)
			if err != nil {
				t.Fatalf("%s: fetch of %v after rot in %v: %v", at, k, victim, err)
			}
			same(at+": after repair", objects(t, decodeSeg(t, sl, ov, data)), model[k])
		}
		if st := s.ScrubStatus(); st.Repaired != repaired+1 || st.Quarantined != 0 {
			t.Fatalf("%s: rot not repaired from the log: %+v", at, st)
		}

		// (ii) as-of images rebuilt from the log: the latest stamps and a
		// sample of older ones.
		for i, h := range history {
			if i < len(history)-3 && rng.Intn(4) != 0 {
				continue
			}
			for _, k := range keys {
				dec, _, ov, data, err := s.readImage(k, secAll, view{t: h.stamp, rebuild: true})
				if err != nil {
					t.Fatalf("%s: as-of %d of %v: %v", at, h.stamp, k, err)
				}
				dec.Overflow, dec.Data = ov, data
				same(fmt.Sprintf("%s: as of stamp %d (history %d of %d)", at, h.stamp, i, len(history)), objects(t, dec), h.state[k])
			}
		}

		// (iii) restart from the durable files.
		r, err := Open(copyDir(t, dir), 1)
		if err != nil {
			t.Fatalf("%s: restart: %v", at, err)
		}
		for _, k := range keys {
			sl, ov, data, err := r.FetchSeg(0, k)
			if err != nil {
				t.Fatalf("%s: fetch of %v after restart: %v", at, k, err)
			}
			same(at+": after restart", objects(t, decodeSeg(t, sl, ov, data)), model[k])
		}
		if st := r.ScrubStatus(); st.CorruptionsFound != 0 {
			t.Fatalf("%s: restart image fails its checksums: %+v", at, st)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointsNeverLoseAckedCommits is the regression for the checkpoint
// that listed a transaction as active after its commit and end records were
// already in the log: restart from that checkpoint undid an acknowledged
// commit. Clients commit to private segments while checkpoints run back to
// back — the last one lands with commits still in flight — then the server
// closes, reopens through recovery, and every client's last acknowledged value
// must be there.
func TestCheckpointsNeverLoseAckedCommits(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := s.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	keys := make([]proto.SegKey, clients)
	for c := range keys {
		fid, _ := s.NewFileID(db)
		key, err := createSeg(s, db, fid, 1, 2, -1)
		if err != nil {
			t.Fatal(err)
		}
		sl, ov, data, err := s.FetchSeg(0, key)
		if err != nil {
			t.Fatal(err)
		}
		dec := decodeSeg(t, sl, ov, data)
		if _, err := dec.CreateObject(0, []byte(fmt.Sprintf("client %d commit %06d", c, 0))); err != nil {
			t.Fatal(err)
		}
		commitImage(t, s, proto.SegImage{Seg: key, Slotted: dec.EncodeSlotted(), Overflow: dec.Overflow, Data: dec.Data})
		keys[c] = key
	}

	stop := make(chan struct{})
	acked := make([]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, _ := s.Hello("c")
			for n := 1; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				sl, ov, data, err := s.FetchSeg(0, keys[c])
				if err != nil {
					t.Error(err)
					return
				}
				dec, err := segment.DecodeSlotted(sl)
				if err != nil {
					t.Error(err)
					return
				}
				dec.Overflow, dec.Data = ov, data
				if err := dec.UpdateObject(0, []byte(fmt.Sprintf("client %d commit %06d", c, n))); err != nil {
					t.Error(err)
					return
				}
				txid, _ := s.NewTx()
				if err := s.Lock(cl, txid, keys[c], proto.LockX); err != nil {
					t.Error(err)
					return
				}
				img := proto.SegImage{Seg: keys[c], Slotted: dec.EncodeSlotted(), Overflow: dec.Overflow, Data: dec.Data}
				if err := s.Commit(cl, txid, []proto.SegImage{img}); err != nil {
					t.Error(err)
					return
				}
				acked[c] = n
			}
		}(c)
	}
	for i := 0; i < 40; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for c, key := range keys {
		b, err := fetchObject(t, s, key)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("client %d commit %06d", c, acked[c]); string(b) != want {
			t.Errorf("after restart: %q, last acknowledged commit was %q", b, want)
		}
	}
}
