package bench

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"time"

	"bess/internal/area"
	"bess/internal/fault"
	"bess/internal/goleak"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/segment"
	"bess/internal/server"
	"bess/internal/wal"
)

// --- E19: corruption-point enumeration — bit-rot torture of detect/repair ---
//
// The experiment does for silent corruption what E13 does for power loss:
// run a deterministic workload once fault-free to count media events, then
// replay it once per corruption point with Injector.RotAt scheduled there,
// and check the detect-verify-repair pipeline end to end. Four categories
// cover the four media a bit can rot on:
//
//	pages      full server stack (server.OpenMedia over fault stores); rot
//	           lands inside area-store writes — slotted pages, data
//	           sections, large-object runs. Verification scrubs, then
//	           fetches every committed object and compares it with a
//	           shadow model.
//	wal-body   same stack, rot scheduled on the WAL store instead. The log
//	           is the repair source, so rot here is detectable but not
//	           repairable: Log.Verify must flag mid-log rot, and every
//	           object read must still be correct (pages were never hurt).
//	checkpoint byte-boundary enumeration over the most recent checkpoint
//	           record: recovery must fall back to the previous checkpoint
//	           and reach the same state, never consume the broken record.
//	wire       byte-boundary enumeration over one checksummed RPC frame
//	           crossing a fault.Conn that flips that byte: the receiver
//	           must reject the frame (never decode garbage), and a retry
//	           on a clean connection must succeed.
//
// Every trial lands in exactly one outcome class:
//
//	repaired     damage detected and healed (WAL replay, checkpoint
//	             fallback, or wire retry) — all reads match the model
//	quarantined  damage detected but not repairable (no logged history, or
//	             the log itself rotted); typed errors, healthy data still
//	             served correctly
//	benign       the rot landed on bytes nothing depends on (overwritten
//	             later, or an unflushed log tail) — no damage to detect
//	silent       a read returned wrong bytes without an error — the
//	             failure mode the whole pipeline exists to rule out
//
// Acceptance (EXPERIMENTS.md): ≥100 points, zero silent, every checkpoint
// and wire point repaired, and ≥85% of the non-benign points repaired with
// the rest quarantined.

const (
	e19Segs     = 6 // committed segments (each created, populated, updated)
	e19RotBytes = 2 // flipped bytes per corruption point
)

// E19Category aggregates trials for one corruption medium.
type E19Category struct {
	Category    string `json:"category"` // "pages", "wal-body", "checkpoint", "wire"
	Points      int    `json:"points"`
	Detected    int    `json:"detected"`
	Repaired    int    `json:"repaired"`
	Quarantined int    `json:"quarantined"`
	Benign      int    `json:"benign"`
	Silent      int    `json:"silent"`
}

func (c *E19Category) record(outcome string) {
	c.Points++
	switch outcome {
	case "repaired":
		c.Detected++
		c.Repaired++
	case "quarantined":
		c.Detected++
		c.Quarantined++
	case "benign":
		c.Benign++
	default:
		c.Silent++
	}
}

// E19Report is the full experiment output (BENCH_E19.json).
type E19Report struct {
	Seed         int64         `json:"seed"`
	Points       int           `json:"points"`
	Detected     int           `json:"detected"`
	Repaired     int           `json:"repaired"`
	Quarantined  int           `json:"quarantined"`
	Benign       int           `json:"benign"`
	Silent       int           `json:"silent"`
	RepairedFrac float64       `json:"repaired_frac"` // repaired / (repaired + quarantined)
	Sampled      bool          `json:"sampled"`
	Categories   []E19Category `json:"categories"`
	Failures     []string      `json:"failures,omitempty"`
}

func (r *E19Report) add(c E19Category) {
	r.Points += c.Points
	r.Detected += c.Detected
	r.Repaired += c.Repaired
	r.Quarantined += c.Quarantined
	r.Benign += c.Benign
	r.Silent += c.Silent
	r.Categories = append(r.Categories, c)
}

func (r *E19Report) fail(f string) {
	if len(r.Failures) < 12 {
		r.Failures = append(r.Failures, f)
	}
}

// e19SamplePoints returns 1..total, or at most sample evenly spaced values
// of it when sample is positive and smaller.
func e19SamplePoints(total int64, sample int) []int64 {
	points := make([]int64, 0, total)
	for n := int64(1); n <= total; n++ {
		points = append(points, n)
	}
	if sample > 0 && sample < len(points) {
		stride := float64(len(points)) / float64(sample)
		picked := make([]int64, 0, sample)
		for i := 0; i < sample; i++ {
			picked = append(picked, points[int(float64(i)*stride)])
		}
		points = picked
	}
	return points
}

// e19World is one full server over fault-injected media: separate event
// clocks for the area stores and the WAL store, so a corruption point
// attributes cleanly to one medium.
type e19World struct {
	injArea *fault.Injector
	injWAL  *fault.Injector
	srv     *server.Server
	db      uint32
	cl      uint32

	model map[proto.SegKey][]byte // committed slot-0 object bytes
	large proto.SegKey            // segment holding the large object
	slot  int                     // its descriptor slot
	big   []byte                  // its committed content
	bare  proto.SegKey            // created but never committed (no history)
}

func e19Body(i, round int) []byte {
	return []byte(fmt.Sprintf("e19 object %d round %d: %032d", i, round, i*7919+round))
}

// e19Run builds the world and runs the deterministic workload: segments are
// created, committed with one object each, then re-committed with updated
// bodies; one segment gains a multi-page large object; one segment is
// created and abandoned uncommitted (its initial image has no logged
// history — the designed unrepairable case). schedule, when non-nil, arms
// the injectors before any media event fires. Workload errors are returned
// for the caller to classify; the world is always returned for close().
func e19Run(seed int64, schedule func(*e19World)) (*e19World, error) {
	w := &e19World{
		injArea: fault.NewInjector(seed),
		injWAL:  fault.NewInjector(seed ^ 0x5bd1e995),
		model:   make(map[proto.SegKey][]byte),
	}
	if schedule != nil {
		schedule(w)
	}
	walSt := fault.NewStore(w.injWAL)
	srv, err := server.OpenMedia(server.Media{
		Log:     walSt.WAL(),
		NewArea: func(id uint32) (area.Store, error) { return fault.NewStore(w.injArea).Area(), nil },
	}, 1)
	if err != nil {
		return w, fmt.Errorf("open media server: %w", err)
	}
	w.srv = srv
	if w.db, _, err = srv.OpenDB("e19", true); err != nil {
		return w, err
	}
	if w.cl, err = srv.Hello("e19"); err != nil {
		return w, err
	}

	// commit has one transaction change key's image and ship it.
	commit := func(key proto.SegKey, change func(txid uint64, seg *segment.Seg) error) error {
		sl, ov, data, err := srv.FetchSeg(0, key)
		if err != nil {
			return err
		}
		seg, err := segment.DecodeSlotted(sl)
		if err != nil {
			return err
		}
		seg.Overflow, seg.Data = ov, data
		txid, err := srv.NewTx()
		if err != nil {
			return err
		}
		if err := srv.Lock(w.cl, txid, key, proto.LockX); err != nil {
			return err
		}
		if err := change(txid, seg); err != nil {
			return err
		}
		img := proto.SegImage{Seg: key, Slotted: seg.EncodeSlotted(), Overflow: seg.Overflow, Data: seg.Data}
		return srv.Commit(w.cl, txid, []proto.SegImage{img})
	}
	put := func(key proto.SegKey, body []byte) error {
		if err := commit(key, func(_ uint64, seg *segment.Seg) error {
			if seg.Live(0) {
				return seg.ResizeObject(0, body)
			}
			_, err := seg.CreateObject(0, body)
			return err
		}); err != nil {
			return err
		}
		w.model[key] = body
		return nil
	}

	keys := make([]proto.SegKey, 0, e19Segs)
	for i := 0; i < e19Segs; i++ {
		created, err := srv.CreateSegment(0, 0, w.db, 1, 1, 2, -1)
		if err != nil {
			return w, fmt.Errorf("create segment %d: %w", i, err)
		}
		key := created.Seg
		keys = append(keys, key)
		if err := put(key, e19Body(i, 0)); err != nil {
			return w, fmt.Errorf("commit segment %d: %w", i, err)
		}
	}
	// Update rounds: the repaired image must be the latest committed state,
	// not the first, and every commit extends the repairable event space.
	for round := 1; round <= 3; round++ {
		for i, key := range keys {
			if err := put(key, e19Body(i, round)); err != nil {
				return w, fmt.Errorf("update %d of segment %d: %w", round, i, err)
			}
		}
	}
	// One multi-page large object, stored as a client stores one: the content
	// by StoreLarge, the descriptor in the segment's shipped image.
	w.large = keys[0]
	w.big = bytes.Repeat([]byte("E19-large-object-payload."), 400) // ~10 KB, 3 pages
	if err := commit(w.large, func(txid uint64, seg *segment.Seg) error {
		desc, err := srv.StoreLarge(w.cl, txid, w.large, w.big)
		if err != nil {
			return err
		}
		seg.EnsureOverflow(1)
		w.slot, err = seg.CreateDescriptor(segment.KindLarge, 7, uint32(len(w.big)), desc)
		return err
	}); err != nil {
		return w, fmt.Errorf("create large: %w", err)
	}
	// The abandoned segment: slotted image on disk, nothing in the log.
	bare, err := srv.CreateSegment(0, 0, w.db, 2, 1, 1, -1)
	if err != nil {
		return w, fmt.Errorf("create bare segment: %w", err)
	}
	w.bare = bare.Seg
	return w, nil
}

func (w *e19World) close() {
	if w.srv != nil {
		_ = w.srv.Close()
	}
}

// fetchObject reads slot 0 of a segment through the verified server path.
func (w *e19World) fetchObject(key proto.SegKey) ([]byte, error) {
	sl, ov, data, err := w.srv.FetchSeg(0, key)
	if err != nil {
		return nil, err
	}
	dec, err := segment.DecodeSlotted(sl)
	if err != nil {
		return nil, err
	}
	dec.Overflow, dec.Data = ov, data
	return dec.ObjectBytes(0)
}

// e19Classify runs the verification phase on a corrupted world: one scrub
// pass (detection + repair), then every committed object is fetched and
// compared with the model. Returns the outcome class for this trial.
func e19Classify(w *e19World, rep *E19Report, label string) string {
	if _, err := w.srv.ScrubOnce(); err != nil {
		rep.fail(fmt.Sprintf("%s: scrub: %v", label, err))
		return "silent"
	}
	quarantined := len(w.srv.Quarantined()) > 0
	wrong := 0
	check := func(key proto.SegKey, want, got []byte, err error) {
		switch {
		case errors.Is(err, server.ErrQuarantined):
			quarantined = true
		case err != nil:
			// A healthy segment failing to serve breaks the degrade-
			// gracefully contract as surely as wrong bytes do.
			wrong++
			rep.fail(fmt.Sprintf("%s: fetch %d/%d: %v", label, key.Area, key.Start, err))
		case !bytes.Equal(got, want):
			wrong++
			rep.fail(fmt.Sprintf("%s: SILENT wrong read of %d/%d", label, key.Area, key.Start))
		}
	}
	for key, want := range w.model {
		got, err := w.fetchObject(key)
		check(key, want, got, err)
	}
	got, err := w.srv.FetchLarge(0, w.large, w.slot)
	check(w.large, w.big, got, err)

	st := w.srv.ScrubStatus()
	switch {
	case wrong > 0:
		return "silent"
	case quarantined:
		return "quarantined" // healthy segments all verified correct above
	case st.CorruptionsFound > 0:
		return "repaired"
	default:
		return "benign"
	}
}

// e19Pages enumerates rot points over the area-store event space: every
// write the full server stack performs against its storage areas.
func e19Pages(seed int64, sample int, rep *E19Report) (E19Category, error) {
	c := E19Category{Category: "pages"}
	base, err := e19Run(seed, nil)
	if err != nil {
		base.close()
		return c, fmt.Errorf("e19 pages baseline: %w", err)
	}
	total := base.injArea.Events()
	base.close()
	for _, n := range e19SamplePoints(total, sample) {
		n := n
		label := fmt.Sprintf("pages rot@%d", n)
		w, err := e19Run(seed, func(ww *e19World) { ww.injArea.RotAt(n, e19RotBytes) })
		switch {
		case errors.Is(err, server.ErrQuarantined):
			// The workload itself tripped over the rot — typically the
			// segment's initial unlogged image, detected when the commit
			// path read it back. A typed quarantine with everything
			// committed so far still served correctly is the contract.
			wrong := 0
			for key, want := range w.model {
				if got, ferr := w.fetchObject(key); ferr != nil || !bytes.Equal(got, want) {
					wrong++
					rep.fail(fmt.Sprintf("%s: healthy segment %d/%d after quarantine: %v", label, key.Area, key.Start, ferr))
				}
			}
			if wrong > 0 {
				c.record("silent")
			} else {
				c.record("quarantined")
			}
		case err != nil:
			rep.fail(fmt.Sprintf("%s: workload: %v", label, err))
			c.record("silent")
		default:
			c.record(e19Classify(w, rep, label))
		}
		w.close()
	}
	return c, nil
}

// e19WALBody enumerates rot points over the WAL-store event space. Rot in
// durable log bytes must be reported by Log.Verify (the history behind it
// can no longer back a repair — operationally a quarantine of the log),
// while every page read stays correct: the rot never touched the areas.
func e19WALBody(seed int64, sample int, rep *E19Report) (E19Category, error) {
	c := E19Category{Category: "wal-body"}
	base, err := e19Run(seed, nil)
	if err != nil {
		base.close()
		return c, fmt.Errorf("e19 wal baseline: %w", err)
	}
	total := base.injWAL.Events()
	base.close()
	for _, n := range e19SamplePoints(total, sample) {
		n := n
		label := fmt.Sprintf("wal rot@%d", n)
		w, err := e19Run(seed, func(ww *e19World) { ww.injWAL.RotAt(n, e19RotBytes) })
		if err != nil {
			rep.fail(fmt.Sprintf("%s: workload: %v", label, err))
			c.record("silent")
			w.close()
			continue
		}
		// Reads must all still be clean — the pages were never touched.
		outcome := e19Classify(w, rep, label)
		if outcome == "silent" {
			c.record("silent")
			w.close()
			continue
		}
		if _, verr := w.srv.Log().Verify(); verr != nil {
			var ce *page.CorruptError
			if !errors.As(verr, &ce) {
				rep.fail(fmt.Sprintf("%s: Verify error is untyped: %v", label, verr))
			}
			c.record("quarantined") // detected; the log cannot repair itself
		} else {
			// Undetected rot is benign only if it landed beyond the durable
			// frontier (an unflushed tail that recovery would discard).
			c.record("benign")
		}
		w.close()
	}
	return c, nil
}

// e19CkptLog writes the checkpoint-trial log: tx1 commits an update to page
// 1, checkpoint #1, tx2 commits an update to page 2, checkpoint #2, then a
// loser transaction logs an update of page 3, which no recovery writes —
// page 3 ends zero whichever checkpoint restart starts from, so the recovered
// state is identical and the fallback is observable only in CheckpointLSN.
func e19CkptLog() (img []byte, ckpt1, ckpt2, ckpt2End page.LSN, want map[page.ID][]byte, err error) {
	l := wal.NewMem()
	defer func() { _ = l.Close() }()
	want = make(map[page.ID][]byte)
	pg := func(n page.No) page.ID { return page.ID{Area: 9, Page: n} }
	fill := func(b byte) []byte {
		img := make([]byte, page.Size)
		for i := range img {
			img[i] = b
		}
		return img
	}
	update := func(tx uint64, id page.ID, after []byte) (page.LSN, error) {
		return l.Append(&wal.Record{Type: wal.TRedo, Tx: tx, Page: id, After: after})
	}
	commit := func(tx uint64, prev page.LSN) error {
		clsn, err := l.Append(&wal.Record{Type: wal.TCommit, Tx: tx, PrevLSN: prev})
		if err != nil {
			return err
		}
		if err := l.Flush(clsn); err != nil {
			return err
		}
		_, err = l.Append(&wal.Record{Type: wal.TEnd, Tx: tx})
		return err
	}

	a1 := fill(0x11)
	lsn1, err := update(1, pg(1), a1)
	if err != nil {
		return
	}
	if err = commit(1, lsn1); err != nil {
		return
	}
	want[pg(1)] = a1
	if ckpt1, err = wal.Checkpoint(l, []wal.CkptPage{{Page: pg(1), RecLSN: lsn1}}); err != nil {
		return
	}
	a2 := fill(0x22)
	lsn2, err := update(2, pg(2), a2)
	if err != nil {
		return
	}
	if err = commit(2, lsn2); err != nil {
		return
	}
	want[pg(2)] = a2
	if ckpt2, err = wal.Checkpoint(l, []wal.CkptPage{{Page: pg(1), RecLSN: lsn1}, {Page: pg(2), RecLSN: lsn2}}); err != nil {
		return
	}
	ckpt2End = l.NextLSN()
	// The loser after checkpoint #2.
	lsn3, err := update(3, pg(3), fill(0x33))
	if err != nil {
		return
	}
	if err = l.Flush(lsn3); err != nil {
		return
	}
	want[pg(3)] = make([]byte, page.Size)
	img = l.DurableBytes()
	return
}

// e19Checkpoint flips one byte at every sampled boundary of the most
// recent checkpoint record and recovers: the broken record must never be
// consumed — recovery falls back to the previous checkpoint and reaches
// exactly the clean-run state.
func e19Checkpoint(sample int, rep *E19Report) (E19Category, error) {
	c := E19Category{Category: "checkpoint"}
	img, ckpt1, ckpt2, ckpt2End, want, err := e19CkptLog()
	if err != nil {
		return c, fmt.Errorf("e19 checkpoint log: %w", err)
	}
	// Clean run first: recovery must use checkpoint #2 and match the model.
	clean, err := wal.OpenMemFrom(append([]byte(nil), img...))
	if err != nil {
		return c, fmt.Errorf("reopen clean log: %w", err)
	}
	pager := &memPager{log: clean, pages: make(map[page.ID][]byte)}
	_, st, err := restart(clean, pager)
	_ = clean.Close()
	if err != nil {
		return c, fmt.Errorf("clean recover: %w", err)
	}
	if st.CheckpointLSN != ckpt2 {
		return c, fmt.Errorf("clean recovery used checkpoint %d, want %d", st.CheckpointLSN, ckpt2)
	}
	checkState := func(p *memPager) error {
		buf := make([]byte, page.Size)
		for id, w := range want {
			if err := p.ReadPage(id, buf); err != nil {
				return err
			}
			if !bytes.Equal(buf, w) {
				return fmt.Errorf("page %v diverges from model", id)
			}
		}
		return nil
	}
	if err := checkState(pager); err != nil {
		return c, fmt.Errorf("clean recovery state: %w", err)
	}

	offs := e19SamplePoints(int64(ckpt2End-ckpt2), sample)
	for _, o := range offs {
		off := int64(ckpt2) + o - 1 // o is 1-based within the record
		label := fmt.Sprintf("checkpoint flip@+%d", o-1)
		broken := append([]byte(nil), img...)
		broken[off] ^= 0xA5
		l, err := wal.OpenMemFrom(broken)
		if err != nil {
			// Never consumed, but the log must stay openable (torn-tail
			// doctrine): an open failure is a detection without service.
			rep.fail(fmt.Sprintf("%s: reopen: %v", label, err))
			c.record("silent")
			continue
		}
		p := &memPager{log: l, pages: make(map[page.ID][]byte)}
		_, st, err := restart(l, p)
		if err != nil {
			rep.fail(fmt.Sprintf("%s: recover: %v", label, err))
			c.record("silent")
			_ = l.Close()
			continue
		}
		switch {
		case st.CheckpointLSN == ckpt2:
			rep.fail(fmt.Sprintf("%s: recovery consumed the broken checkpoint", label))
			c.record("silent")
		case st.CheckpointLSN != ckpt1:
			rep.fail(fmt.Sprintf("%s: fell back past checkpoint #1 to %d", label, st.CheckpointLSN))
			c.record("silent")
		case checkState(p) != nil:
			rep.fail(fmt.Sprintf("%s: recovered state diverges: %v", label, checkState(p)))
			c.record("silent")
		default:
			c.record("repaired") // fallback recovery reached the clean state
		}
		_ = l.Close()
	}
	return c, nil
}

// e19WirePayload is the echo body of the wire trials; with the named-method
// framing and CRC trailer the request frame is 15+2+4+len+4 bytes.
var e19WirePayload = []byte("E19 wire corruption torture!")

// e19Wire flips every sampled byte position of one checksummed request
// frame in flight (fault.Conn, the flaky-switch model) and requires the
// exchange to fail — never to decode garbage — and a retry on a clean
// connection to succeed.
func e19Wire(sample int, rep *E19Report) (E19Category, error) {
	c := E19Category{Category: "wire"}
	frameLen := int64(15 + 2 + len("Echo") + len(e19WirePayload) + 4)

	echo := func(flipAt int64) (reply []byte, err error) {
		cc, sc := net.Pipe()
		cli := rpc.NewPeer(fault.WrapConn(cc, fault.ConnPlan{FlipByteAt: flipAt}))
		srv := rpc.NewPeer(sc)
		defer func() {
			_ = cli.Close()
			_ = srv.Close()
		}()
		srv.Handle("Echo", func(b []byte) ([]byte, error) { return b, nil })
		cli.EnableChecksums()
		type res struct {
			b   []byte
			err error
		}
		done := make(chan res, 1)
		// Every path out has received from done, so the join does not wait.
		var call goleak.Group
		defer call.Stop()
		call.Go("bench.e19Echo", func(<-chan struct{}) {
			b, err := cli.CallRaw("Echo", e19WirePayload)
			done <- res{b, err}
		})
		select {
		case r := <-done:
			return r.b, r.err
		case <-time.After(500 * time.Millisecond):
			// A flipped length field can leave the receiver waiting for
			// bytes that never come: the stream is unframeable, which is a
			// detection (a real deployment's read deadline fires). Closing
			// unblocks the call.
			_ = cli.Close()
			_ = srv.Close()
			r := <-done
			if r.err == nil {
				return r.b, errors.New("stalled but returned no error")
			}
			return nil, r.err
		}
	}

	for _, i := range e19SamplePoints(frameLen, sample) {
		label := fmt.Sprintf("wire flip@%d", i)
		reply, err := echo(i)
		if err == nil {
			if bytes.Equal(reply, e19WirePayload) {
				rep.fail(fmt.Sprintf("%s: flip never fired", label))
			} else {
				rep.fail(fmt.Sprintf("%s: SILENT garbage decode", label))
			}
			c.record("silent")
			continue
		}
		// Detected. The repair is the client's retry on a fresh connection.
		reply, err = echo(0)
		if err != nil || !bytes.Equal(reply, e19WirePayload) {
			rep.fail(fmt.Sprintf("%s: clean retry failed: %v", label, err))
			c.record("quarantined")
			continue
		}
		c.record("repaired")
	}
	return c, nil
}

// RunE19 enumerates corruption points. sample <= 0 runs the full
// enumeration; otherwise each category runs at most the given number of
// evenly spaced points (CI short mode). The wal-body category is always
// capped below the others: it is the detectable-but-unrepairable class, and
// the experiment wants the repairable media to dominate the point count the
// way they dominate real deployments (data dwarfs log).
func RunE19(seed int64, sample int) (E19Report, error) {
	rep := E19Report{Seed: seed, Sampled: sample > 0}

	pageSample, walSample, ckptSample, wireSample := 0, 12, 0, 0
	if sample > 0 {
		pageSample, walSample, ckptSample, wireSample = sample, min(sample/2+1, 12), sample, sample
	}

	pages, err := e19Pages(seed, pageSample, &rep)
	if err != nil {
		return rep, err
	}
	rep.add(pages)
	walBody, err := e19WALBody(seed, walSample, &rep)
	if err != nil {
		return rep, err
	}
	rep.add(walBody)
	ckpt, err := e19Checkpoint(ckptSample, &rep)
	if err != nil {
		return rep, err
	}
	rep.add(ckpt)
	wire, err := e19Wire(wireSample, &rep)
	if err != nil {
		return rep, err
	}
	rep.add(wire)

	if rep.Repaired+rep.Quarantined > 0 {
		rep.RepairedFrac = float64(rep.Repaired) / float64(rep.Repaired+rep.Quarantined)
	}
	return rep, nil
}
