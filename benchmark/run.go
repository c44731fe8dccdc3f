package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// runCfg is one invocation's parameters.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string        // everything the run writes lives in a temp dir under this
	outDir   string        // result JSON and span files
	segDiv   int           // 1 in real runs; the smoke test shrinks the data sets
	setups   int           // setupReps in real runs
	probe    time.Duration // time each single-caller probe may take (traced runs)
}

func (c runCfg) dur(frac float64) time.Duration {
	return time.Duration(c.seconds * frac * float64(time.Second))
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run: what the last stdout line carries, plus context.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	FailFrac  float64          `json:"fail_frac"`
	Metrics   map[string]value `json:"metrics"`            // the pipeline's: end_to_end, or per_layer when traced
	Reported  map[string]value `json:"reported,omitempty"` // untraced runs: the end-to-end rows the pipeline does not gate
	Env       environment      `json:"env"`
	Notes     []string         `json:"notes,omitempty"`
}

// background runs the checkpoint ticker (bess-server -checkpoint), keeps the
// server-side snapshot pin (see pinEvery) and, in traced runs, samples the
// version store. stop joins it.
type background struct {
	stopCh chan struct{}
	done   chan struct{}

	// Written by the goroutine only; read after stop has joined it.
	versionsMax int
	err         error
}

// pinEvery is how often the harness rotates the server-side snapshot it keeps
// open beside a snapshot reader and a writer. The server captures a
// pre-update image for the version chain only while some snapshot is open; a
// single reader closes its snapshot between reads, and an update staged in
// that gap is not captured, so the next snapshot that needs the old version
// rebuilds it from the WAL — by scanning the whole, never-truncated log:
// 180 ms at 30 MB of log, 740 ms at 130 MB (README.md, "Findings"). Two
// percent of reads then take 97 % of the reader's time and read_per_s
// measures the log's length. The pin stands for the long-running reader any
// real mixed system has, makes every update pay the capture cost, and keeps
// the window stationary; rotating it lets the version store trim.
const pinEvery = 250 * time.Millisecond

func (e *env) startBackground(ckptEvery time.Duration, pin bool) *background {
	b := &background{stopCh: make(chan struct{}), done: make(chan struct{})}
	fail := func(what string, err error) {
		if err != nil && b.err == nil {
			b.err = fmt.Errorf("%s: %w", what, err)
		}
	}
	go func() {
		defer close(b.done)
		ckpt := time.NewTicker(ckptEvery)
		defer ckpt.Stop()
		sample := time.NewTicker(50 * time.Millisecond)
		defer sample.Stop()
		var repin <-chan time.Time // stays nil, and never fires, without a pin
		var pinned uint64
		rotate := func() {
			id, _, err := e.srv.SnapOpen(0)
			if err == nil && pinned != 0 {
				err = e.srv.SnapClose(0, pinned)
			}
			pinned = id
			fail("snapshot pin", err)
		}
		if pin {
			t := time.NewTicker(pinEvery)
			defer t.Stop()
			repin = t.C
			rotate()
		}
		for {
			select {
			case <-b.stopCh:
				if pinned != 0 {
					fail("snapshot pin", e.srv.SnapClose(0, pinned))
				}
				return
			case <-repin:
				rotate()
			case <-ckpt.C:
				t0 := time.Now()
				err := e.srv.Checkpoint()
				t1 := time.Now()
				if e.rec.enabled() {
					e.rec.add("server.checkpoint", e.rec.newID(), 0, 0, t0, t1)
				}
				fail("checkpoint", err)
			case <-sample.C:
				if e.rec.enabled() {
					if n := e.srv.VersionStats().Entries; n > b.versionsMax {
						b.versionsMax = n
					}
				}
			}
		}
	}()
	return b
}

func (b *background) stop() error {
	close(b.stopCh)
	<-b.done
	return b.err
}

// hasClass reports whether the phase runs cls.
func hasClass(who []assign, cls class) bool {
	for _, a := range who {
		if a.cls == cls {
			return true
		}
	}
	return false
}

// hasUpdates reports whether the phase commits: only then does the server
// checkpoint beside it.
func hasUpdates(who []assign) bool { return hasClass(who, clsUpdate) }

// needsPin reports whether the phase runs a snapshot reader beside a writer.
func needsPin(sh shape, who []assign) bool {
	return sh.snapRead && hasClass(who, clsRead) && hasUpdates(who)
}

// measured is a recorded phase with the log growth it caused.
type measured struct {
	*phaseResult
	logBytes, commits int64
	peakRSSMB         float64 // VmHWM at the end of the phase, the mark started afresh after the warm-up
	rssErr            error   // why the mark could not be started afresh
}

// phase warms the assigned workers up for warmupFrac of dur, then records
// them for dur. Phases that commit run beside the checkpoint ticker.
func (e *env) phase(dur time.Duration, who []assign) (*measured, error) {
	var bg *background
	if hasUpdates(who) {
		bg = e.startBackground(dur/checkpointsPerWindow, needsPin(e.sh, who))
	}
	e.runPhase(time.Duration(float64(dur)*warmupFrac), who)
	m := &measured{}
	// The high-water mark is the window's, not the floors' or the set-ups'.
	m.rssErr = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	lsn0, commits0 := e.srv.Log().NextLSN(), e.srv.Snapshot().Commits
	m.phaseResult = e.runPhase(dur, who)
	m.logBytes = int64(e.srv.Log().NextLSN() - lsn0)
	m.commits = e.srv.Snapshot().Commits - commits0
	var err error
	m.peakRSSMB, err = peakRSSMB()
	if bg != nil {
		err = errors.Join(err, bg.stop())
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// run executes one workload and returns its result. Every exit path removes
// what the run created under cfg.dir.
func run(cfg runCfg) (res *result, err error) {
	sh, err := shapeOf(cfg.workload, cfg.segDiv)
	if err != nil {
		return nil, err
	}
	if err := checkFree(cfg.dir); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.dir, "bess-bench-")
	if err != nil {
		return nil, err
	}
	defer removeOnSignal(work)()
	defer func() {
		if rerr := os.RemoveAll(work); rerr != nil && err == nil {
			err = rerr
		}
	}()
	fl, err := measureFloors(work)
	if err != nil {
		return nil, fmt.Errorf("floors: %w", err)
	}
	res = &result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Metrics: map[string]value{}, Env: describeEnv(cfg, fl)}
	if cfg.trace {
		err = runTraced(cfg, sh, work, fl, res)
	} else {
		err = runUntraced(cfg, sh, work, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	res.FailFrac = float64(res.Failed) / float64(res.Attempted)
	return res, nil
}

// count adds a phase's operations to the run's attempted and failed totals.
func (res *result) count(p *phaseResult) {
	for c := range p.cls {
		r := &p.cls[c]
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.firstErr != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("%s: first failure: %v", classNames[c], r.firstErr))
		}
	}
}

// classStats is one class's whole-window numbers, as the issue defines them:
// operations over elapsed time, exact-sample percentiles by sorting, and for
// scans payload bytes over pass time.
type classStats struct {
	perS, p50Us, p95Us, mbps float64
}

func (c *classResult) stats(elapsed time.Duration) classStats {
	sorted := sortedCopy(c.lat)
	var bytes, ns int64
	for i, b := range c.opBytes {
		bytes += b
		ns += c.lat[i]
	}
	return classStats{
		perS:  ratio(float64(len(sorted)), elapsed.Seconds()),
		p50Us: us(percentile(sorted, 0.50)),
		p95Us: us(percentile(sorted, 0.95)),
		mbps:  ratio(float64(bytes)/(1<<20), float64(ns)/1e9),
	}
}

// runUntraced measures the end-to-end metrics.
func runUntraced(cfg runCfg, sh shape, work string, res *result) (err error) {
	// Set-up runs several times; setup_s is the median, and the last system
	// built is the one measured.
	var e *env
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if e, err = setupEnv(sh, work, nil, cfg.seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := e.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	m, err := e.phase(cfg.dur(1), sh.work)
	if err != nil {
		return err
	}
	res.count(m.phaseResult)
	// A workload that never commits has no log_bytes_per_commit of its own,
	// and the pipeline wants every workload to print every gated metric: its
	// first session then updates the same data for a moment. The number says
	// what a commit of this workload's transaction shape puts in the log.
	logged := m
	if !hasUpdates(sh.work) {
		if logged, err = e.phase(cfg.dur(logFrac), []assign{{0, clsUpdate}}); err != nil {
			return err
		}
		res.count(logged.phaseResult)
	}
	if logged.commits == 0 {
		return errors.New("no update transaction committed")
	}

	// Output verification: restart the server from its files and read back
	// the last acked value of every object.
	_, checked, wrong, err := e.reopenVerify()
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	res.Attempted += checked
	res.Failed += wrong
	if wrong > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("reopen: %d of %d objects did not carry their last acked value", wrong, checked))
	}

	res.Reported = map[string]value{}
	put := func(to map[string]value, name string, v float64) {
		d, _ := findMetric(name)
		to[name] = value{v, d.Unit}
	}
	put(res.Metrics, "setup_s", medianFloat(setups))
	put(res.Metrics, "log_bytes_per_commit", float64(logged.logBytes)/float64(logged.commits))
	put(res.Reported, "peak_rss_MB", m.peakRSSMB)
	if m.rssErr != nil {
		res.Notes = append(res.Notes, fmt.Sprintf("peak_rss_MB covers floors and set-up too: %v", m.rssErr))
	}
	for c, prefix := range classNames {
		if !hasClass(sh.work, class(c)) {
			continue
		}
		r := &m.cls[c]
		if len(r.lat) == 0 {
			return fmt.Errorf("no %s operation completed", prefix)
		}
		st := r.stats(m.elapsed)
		if class(c) == clsScan {
			put(res.Reported, "scan_MBps", st.mbps)
			continue
		}
		put(res.Reported, prefix+"_per_s", st.perS)
		put(res.Reported, prefix+"_p50_us", st.p50Us)
		put(res.Reported, prefix+"_p95_us", st.p95Us)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark (since the last
// write of "5" to /proc/self/clear_refs).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}
