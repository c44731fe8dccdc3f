package server

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bess/internal/fault"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
)

// Tests for the byte-range logging rule (internal/tx/logging.go) as the
// server uses it: what a commit costs in log bytes, and that repair and
// restart still rebuild exact images from ranges.

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
// have their anchors logs a few hundred bytes (one commit record carrying two
// byte ranges — the object's bytes and the header's checksums), also as
// the first touch after a checkpoint, and a first touch after a reopen logs
// two anchors, a page each.
func TestLogVolumeBudget(t *testing.T) {
	const (
		commitEnd  = 50
		deltaBound = 600
		anchors    = 2*page.Size + deltaBound // two whole-page records, with room to spare
	)
	dir := t.TempDir()
	s, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
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
	if n := logged(3); n > deltaBound {
		t.Fatalf("first touch after a checkpoint logged %d bytes, budget %d", n, deltaBound)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, 1); err != nil {
		t.Fatal(err)
	}
	if n := logged(4); n > anchors+commitEnd {
		t.Fatalf("first touch after a reopen logged %d bytes, more than two anchors (%d)", n, anchors+commitEnd)
	} else if n <= deltaBound {
		t.Fatalf("first touch after a reopen logged %d bytes: no anchor", n)
	}
	if n := logged(5); n > deltaBound {
		t.Fatalf("second touch after a reopen logged %d bytes, budget %d", n, deltaBound)
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

// TestLoggingRuleProperty drives a random sequence of in-page overwrites —
// committed; prepared and rolled back; shipped and rolled back because the
// commit's force failed; committed with a checkpoint taken between the force
// and the page writes — plain checkpoints and reopens against a shadow model,
// on fault devices, and after every step checks the three consumers of page
// history:
//
//	(i)   repair: a deliberately rotted slotted or data page is rebuilt from
//	      the log and every object reads back as the model has it;
//	(ii)  as-of: a snapshot opened at each earlier commit (snapshots die
//	      with the server, so a reopen starts the history over) reads the
//	      model as it was then, from the version chains or the disk;
//	(iii) restart: a server opened on a copy of the devices as a process
//	      crash would leave them recovers to the model — and, after the
//	      mid-commit checkpoint, so does one opened on the copy taken right
//	      after the checkpoint, before the commit wrote a page.
func TestLoggingRuleProperty(t *testing.T) {
	steps := 60
	if testing.Short() {
		steps = 20
	}
	rng := rand.New(rand.NewSource(13))
	inj := fault.NewInjector(13)
	d := newDevices(inj, inj)
	s := d.open(t)
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
		snap  uint64
		state map[proto.SegKey][][]byte
	}
	reader, _ := s.Hello("snapshots")
	opened := func() past {
		t.Helper()
		snap, _, err := s.SnapOpen(reader)
		if err != nil {
			t.Fatal(err)
		}
		return past{snap, snapshotModel()}
	}
	history := []past{opened()}

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

	// restarted opens a server on devices c and checks it holds the model.
	restarted := func(what string, c *devices) {
		t.Helper()
		r := c.open(t)
		for _, k := range keys {
			sl, ov, data, err := r.FetchSeg(0, k)
			if err != nil {
				t.Fatalf("%s: fetch of %v after restart: %v", what, k, err)
			}
			same(what+": after restart", objects(t, decodeSeg(t, sl, ov, data)), model[k])
		}
		if st := r.ScrubStatus(); st.CorruptionsFound != 0 {
			t.Fatalf("%s: restart image fails its checksums: %+v", what, st)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var key proto.SegKey // the step's segment
	lock := func() (uint32, uint64) {
		cl, _ := s.Hello("c")
		txid, _ := s.NewTx()
		if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
			t.Fatal(err)
		}
		return cl, txid
	}

	for step := 0; step < steps; step++ {
		key = keys[rng.Intn(nSegs)]
		what := ""
		switch r := rng.Intn(10); {
		case r < 5:
			what = "commit"
			img, next := overwrite(key)
			commitImage(t, s, img)
			model[key] = next
			history = append(history, opened())
		case r < 6:
			what = "abort"
			img, _ := overwrite(key)
			cl, txid := lock()
			// Phase 1 logs the image; the decision rolls it back.
			if err := s.Publish(cl, txid, nil, []proto.SegImage{img}, true); err != nil {
				t.Fatal(err)
			}
			if err := s.Decide(txid, false); err != nil {
				t.Fatal(err)
			}
		case r < 7:
			what = "failed force"
			img, _ := overwrite(key)
			cl, txid := lock()
			// The commit's round writes the log, then fails its sync: the
			// records reach the log with the rollback's force, the commit
			// record among them, and the abort record after it.
			inj.FailAt(inj.Events()+2, nil)
			if err := s.Commit(cl, txid, []proto.SegImage{img}); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("step %d: commit over a failing force: %v", step, err)
			}
		case r < 8:
			what = "checkpoint between the force and the page writes"
			img, next := overwrite(key)
			var mid *devices
			d.beforeWrite = func() {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				mid = d.copy()
			}
			commitImage(t, s, img)
			model[key] = next
			history = append(history, opened())
			restarted(fmt.Sprintf("step %d, crashed after the mid-commit checkpoint", step), mid)
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
			d = d.copy()
			inj = d.logInj
			s = d.open(t)
			reader, _ = s.Hello("snapshots")
			history = []past{opened()}
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

		// (ii) as-of images through the open snapshots: the latest and a
		// sample of older ones.
		for i, h := range history {
			if i < len(history)-3 && rng.Intn(4) != 0 {
				continue
			}
			for _, k := range keys {
				sl, ov, data, err := s.SnapFetchSeg(reader, h.snap, k)
				if err != nil {
					t.Fatalf("%s: snapshot %d of %v: %v", at, h.snap, k, err)
				}
				same(fmt.Sprintf("%s: snapshot %d (history %d of %d)", at, h.snap, i, len(history)), objects(t, decodeSeg(t, sl, ov, data)), h.state[k])
			}
		}
		if st := s.VersionStats(); st.Trimmed != 0 {
			t.Fatalf("%s: an as-of read missed: %+v", at, st)
		}

		// (iii) restart from what a process crash would leave.
		restarted(at, d.copy())
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
