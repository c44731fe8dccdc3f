package torture

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"time"

	"bess/internal/fault"
	"bess/internal/page"
	"bess/internal/rpc"
	"bess/internal/server"
	"bess/internal/wal"
)

// --- E19: corruption-point enumeration — bit-rot torture of detect/repair ---
//
// Four categories cover the four media a bit can rot on: pages (the server
// history's area writes), wal-body (its log writes: detectable by Log.Verify,
// not repairable), checkpoint (each byte of the latest checkpoint record:
// restart must fall back to the one before) and wire (each byte of one
// checksummed RPC frame: rejected, then retried clean). Every trial lands in
// one outcome class: repaired (detected and healed; every read matches the
// model), quarantined (detected, not repairable; typed errors, healthy data
// still served), benign (nothing depends on the bytes: overwritten later, or
// an unflushed log tail) or silent (a read returned wrong bytes without an
// error). The history has no raw run, the one kind of committed data no
// checksum covers. Acceptance (EXPERIMENTS.md): ≥100 points, zero silent,
// every checkpoint and wire point repaired, ≥85% of the rest repaired.

// RotCounts are the outcomes of a set of corruption trials.
type RotCounts struct {
	Points      int `json:"points"`
	Detected    int `json:"detected"`
	Repaired    int `json:"repaired"`
	Quarantined int `json:"quarantined"`
	Benign      int `json:"benign"`
	Silent      int `json:"silent"`
}

func (c *RotCounts) record(outcome string) {
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

// RotCategory aggregates the trials of one corruption medium.
type RotCategory struct {
	Category string `json:"category"` // "pages", "wal-body", "checkpoint", "wire"
	RotCounts
}

// E19Report is the full experiment output (BENCH_E19.json).
type E19Report struct {
	Seed int64 `json:"seed"`
	RotCounts
	RepairedFrac float64       `json:"repaired_frac"` // repaired / (repaired + quarantined)
	Sampled      bool          `json:"sampled"`
	Categories   []RotCategory `json:"categories"`
	Failures     []string      `json:"failures,omitempty"`
}

func (r *E19Report) fail(f string) {
	if len(r.Failures) < 12 {
		r.Failures = append(r.Failures, f)
	}
}

// rot is the rot enumerator: it runs trial at sample of the category's
// points 1..total, evenly spread (all of them if sample <= 0), and adds the
// outcomes to r.
func (r *E19Report) rot(name string, total int64, sample int, trial func(n int64) string) {
	c := RotCategory{Category: name}
	for _, n := range spread(upTo(total), sample) {
		outcome := trial(n)
		c.record(outcome)
		r.record(outcome)
	}
	r.Categories = append(r.Categories, c)
}

// served checks every object of sw with an acknowledged commit against the
// model: it counts the reads that came back wrong, or failed other than by a
// quarantine, and reports whether one failed by a quarantine.
func (sw *srvWorld) served(rep *E19Report, label string) (wrong int, quarantined bool) {
	for _, o := range sw.objs {
		want, ok := o.want(func(tx uint64) bool { return sw.acked[tx] == wal.TCommit })
		if !ok {
			continue
		}
		got, err := o.read(sw.srv)
		switch {
		case errors.Is(err, server.ErrQuarantined):
			quarantined = true
		case err != nil:
			// A healthy segment failing to serve breaks the degrade-
			// gracefully contract as surely as wrong bytes do.
			wrong++
			rep.fail(fmt.Sprintf("%s: fetch %s: %v", label, o.name, err))
		case !bytes.Equal(got, want):
			wrong++
			rep.fail(fmt.Sprintf("%s: SILENT wrong read of %s", label, o.name))
		}
	}
	return wrong, quarantined
}

// classify scrubs a corrupted world once (detection and repair), checks
// every committed object against the model, and returns the trial's outcome.
func (sw *srvWorld) classify(rep *E19Report, label string) string {
	if _, err := sw.srv.ScrubOnce(); err != nil {
		rep.fail(fmt.Sprintf("%s: scrub: %v", label, err))
		return "silent"
	}
	wrong, quarantined := sw.served(rep, label)
	switch {
	case wrong > 0:
		return "silent"
	case quarantined || len(sw.srv.Quarantined()) > 0:
		return "quarantined" // healthy segments all verified correct above
	case sw.srv.ScrubStatus().CorruptionsFound > 0:
		return "repaired"
	default:
		return "benign"
	}
}

// rotHistory is a trial of the pages category — rot at area event n — or,
// with onLog set, of the wal-body category — rot at log event n. Rot in
// durable log bytes must be reported by Log.Verify (the history behind it can
// no longer back a repair — operationally a quarantine of the log), while
// every page read stays correct: the rot never touched the areas, and a page
// whose history a commit needs from the rotted log is quarantined.
func rotHistory(seed int64, rep *E19Report, onLog bool) func(int64) string {
	return func(n int64) string {
		w, label := rotWorld(seed), fmt.Sprintf("pages rot@%d", n)
		if onLog {
			w.Log.RotAt(n, srvRotBytes)
			label = fmt.Sprintf("wal rot@%d", n)
		} else {
			w.Area.RotAt(n, srvRotBytes)
		}
		sw, err := srvHistory(w)
		defer sw.close()
		switch {
		case errors.Is(err, server.ErrQuarantined):
			// The workload itself tripped over the rot — typically the
			// segment's initial unlogged image, detected when the commit
			// path read it back, or a prepared branch's record, detected
			// when the decision replays it. A typed quarantine with
			// everything committed so far still served correctly is the
			// contract.
			if wrong, _ := sw.served(rep, label+" after quarantine"); wrong > 0 {
				return "silent"
			}
			return "quarantined"
		case err != nil:
			rep.fail(fmt.Sprintf("%s: workload: %v", label, err))
			return "silent"
		}
		outcome := sw.classify(rep, label)
		if !onLog || outcome == "silent" {
			return outcome
		}
		if _, verr := sw.srv.Log().Verify(); verr != nil {
			if !errors.As(verr, new(*page.CorruptError)) {
				rep.fail(fmt.Sprintf("%s: Verify error is untyped: %v", label, verr))
			}
			return "quarantined" // detected; the log cannot repair itself
		}
		// Undetected rot is benign only if it landed beyond the durable
		// frontier (an unflushed tail that recovery would discard).
		return "benign"
	}
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
	base, err := srvHistory(rotWorld(seed))
	areaEvents, logEvents := base.Area.Events(), base.Log.Events() // before Close syncs
	base.close()
	if err != nil {
		return rep, fmt.Errorf("e19 baseline: %w", err)
	}
	rep.rot("pages", areaEvents, pageSample, rotHistory(seed, &rep, false))
	rep.rot("wal-body", logEvents, walSample, rotHistory(seed, &rep, true))
	if err := rotCheckpoint(ckptSample, &rep); err != nil {
		return rep, err
	}
	rep.rot("wire", wireFrameLen, wireSample, rotWire(&rep))
	if rep.Repaired+rep.Quarantined > 0 {
		rep.RepairedFrac = float64(rep.Repaired) / float64(rep.Repaired+rep.Quarantined)
	}
	return rep, nil
}

// ckptLog writes the checkpoint-trial log: tx1 commits page 1 whole,
// checkpoint #1, tx2 commits page 2, checkpoint #2, then a loser's spill
// changes page 3, which no recovery writes — page 3 ends zero whichever
// checkpoint restart starts from, so the recovered state is identical and the
// fallback is observable only in CheckpointLSN. It returns the durable log,
// the two checkpoints and the end of the second, and each page's image.
func ckptLog() (img []byte, ckpt [2]page.LSN, end page.LSN, want map[page.ID][]byte, err error) {
	l := wal.NewMem()
	defer func() { _ = l.Close() }()
	want = make(map[page.ID][]byte)
	var dirty []wal.CkptPage
	for i := range 3 {
		id := page.ID{Area: 9, Page: page.No(i + 1)}
		rec := &wal.Record{Type: wal.TCommit, Tx: uint64(i + 1), Changes: []wal.Change{{Page: id, After: bytes.Repeat([]byte{byte(0x11 * (i + 1))}, page.Size)}}}
		want[id] = rec.Changes[0].After
		if i == 2 {
			end = l.NextLSN()
			rec.Type, want[id] = wal.TRedo, make([]byte, page.Size)
		}
		lsn, err := l.Append(rec)
		if err == nil {
			err = l.Flush(lsn)
		}
		if err != nil || i == 2 {
			return l.DurableBytes(), ckpt, end, want, err
		}
		dirty = append(dirty, wal.CkptPage{Page: id, RecLSN: lsn})
		if ckpt[i], err = wal.Checkpoint(l, dirty); err != nil {
			return nil, ckpt, end, want, err
		}
	}
	return
}

// rotCheckpoint flips one byte at every sampled boundary of the most recent
// checkpoint record and recovers: the broken record must never be consumed —
// recovery falls back to the previous checkpoint and reaches exactly the
// clean-run state.
func rotCheckpoint(sample int, rep *E19Report) error {
	img, ckpt, end, want, err := ckptLog()
	if err != nil {
		return fmt.Errorf("e19 checkpoint log: %w", err)
	}
	// recovered restarts over img and reports the checkpoint it started from,
	// or why it did not reach the model's state.
	recovered := func(img []byte) (page.LSN, error) {
		l, err := wal.OpenMemFrom(img)
		if err != nil {
			return 0, fmt.Errorf("reopen: %w", err)
		}
		defer func() { _ = l.Close() }()
		p := NewMemPager(l)
		_, st, err := Restart(l, p)
		if err != nil {
			return 0, fmt.Errorf("recover: %w", err)
		}
		buf := make([]byte, page.Size)
		for id, w := range want {
			if err := p.ReadPage(id, buf); err != nil || !bytes.Equal(buf, w) {
				return st.CheckpointLSN, fmt.Errorf("page %v diverges from the model", id)
			}
		}
		return st.CheckpointLSN, nil
	}
	// Clean run first: recovery must use checkpoint #2 and match the model.
	if from, err := recovered(img); err != nil || from != ckpt[1] {
		return fmt.Errorf("clean recovery from checkpoint %d (want %d): %v", from, ckpt[1], err)
	}
	rep.rot("checkpoint", int64(end-ckpt[1]), sample, func(o int64) string {
		label := fmt.Sprintf("checkpoint flip@+%d", o-1)
		broken := bytes.Clone(img)
		broken[int64(ckpt[1])+o-1] ^= 0xA5 // o is 1-based within the record
		switch from, err := recovered(broken); {
		case err != nil:
			// Never consumed, but the log must stay openable (torn-tail
			// doctrine): an open failure is a detection without service.
			rep.fail(fmt.Sprintf("%s: %v", label, err))
		case from != ckpt[0]:
			rep.fail(fmt.Sprintf("%s: recovery started from %d, not from checkpoint #1", label, from))
		default:
			return "repaired" // fallback recovery reached the clean state
		}
		return "silent"
	})
	return nil
}

// wirePayload is the echo body of the wire trials; with the named-method
// framing and CRC trailer the request frame is wireFrameLen bytes.
var wirePayload = []byte("E19 wire corruption torture!")
var wireFrameLen = int64(15 + 2 + len("Echo") + len(wirePayload) + 4)

// rotWire is a trial of the wire category: it flips byte n of one
// checksummed request frame in flight (fault.Conn, the flaky-switch model)
// and requires the exchange to fail — never to decode garbage — and a retry
// on a clean connection to succeed.
func rotWire(rep *E19Report) func(int64) string {
	echo := func(flipAt int64) ([]byte, error) {
		cc, sc := net.Pipe()
		// A flipped length field can leave a receiver waiting for bytes that
		// never come: the stream is unframeable, which is a detection, and the
		// deadline — a real deployment's read deadline — ends the wait.
		deadline := time.Now().Add(500 * time.Millisecond)
		_, _ = cc.SetDeadline(deadline), sc.SetDeadline(deadline)
		cli := rpc.NewPeer(fault.WrapConn(cc, fault.ConnPlan{FlipByteAt: flipAt}))
		srv := rpc.NewPeer(sc)
		defer func() { _, _ = cli.Close(), srv.Close() }()
		srv.Handle("Echo", func(b []byte) ([]byte, error) { return b, nil })
		cli.EnableChecksums()
		return cli.CallRaw("Echo", wirePayload)
	}
	return func(i int64) string {
		label := fmt.Sprintf("wire flip@%d", i)
		if reply, err := echo(i); err == nil {
			rep.fail(fmt.Sprintf("%s: the exchange succeeded, its reply intact: %v", label, bytes.Equal(reply, wirePayload)))
			return "silent"
		}
		// Detected. The repair is the client's retry on a fresh connection.
		if reply, err := echo(0); err != nil || !bytes.Equal(reply, wirePayload) {
			rep.fail(fmt.Sprintf("%s: clean retry failed: %v", label, err))
			return "quarantined"
		}
		return "repaired"
	}
}
