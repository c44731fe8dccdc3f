// Package torture holds the crash and corruption enumerations of the storage
// manager (E13 and E19, DESIGN.md §5): one world of fault media and one
// enumerator for each kind of fault. A crash workload runs once fault-free to
// count its device events, then once per event × mode, each replay rebooted
// onto what survived and held to the workload's model; a rot enumeration
// replays once per point with one corruption scheduled there and classifies
// what detect-verify-repair made of it. Every replay is deterministic in
// (seed, point, mode). The package is correctness code: it drives the product
// through the interfaces it already has (wal.Backing, area.Store,
// server.OpenMedia) and times nothing.
package torture

import (
	"fmt"

	"bess/internal/area"
	"bess/internal/fault"
	"bess/internal/lock"
	"bess/internal/page"
	"bess/internal/server"
	"bess/internal/tx"
	"bess/internal/wal"
)

// World is the durable media of one simulated machine: the log's device and
// a device per storage area, made at its first use. A crash world puts them
// all on one clock, so a crash point can fall between a log force and the
// page write after it; a rot world gives the log a clock of its own, so a
// corruption point attributes cleanly to one medium.
type World struct {
	// Log and Area are the clocks of the log's device and of the areas'. In
	// a crash world they are one injector.
	Log, Area *fault.Injector
	log       *fault.Store
	areas     map[uint32]*fault.Store
}

// crashWorld returns empty media on one clock.
func crashWorld(seed int64) *World {
	inj := fault.NewInjector(seed)
	return newWorld(inj, inj)
}

// rotWorld returns empty media on two clocks, the log's and the areas'.
func rotWorld(seed int64) *World {
	return newWorld(fault.NewInjector(seed^0x5bd1e995), fault.NewInjector(seed))
}

func newWorld(logInj, areaInj *fault.Injector) *World {
	return &World{Log: logInj, Area: areaInj, log: fault.NewStore(logInj), areas: make(map[uint32]*fault.Store)}
}

// area returns the device of area id.
func (w *World) area(id uint32) *fault.Store {
	st := w.areas[id]
	if st == nil {
		st = fault.NewStore(w.Area)
		w.areas[id] = st
	}
	return st
}

// media returns the devices as server.OpenMedia takes them: an area's device
// is made at its first open and found again at every later one.
func (w *World) media() server.Media {
	return server.Media{Log: w.log.WAL(), NewArea: func(id uint32) (area.Store, error) { return w.area(id).Area(), nil }}
}

// crashed reports whether a scheduled crash fired on either clock.
func (w *World) crashed() bool { return w.Log.Crashed() || w.Area.Crashed() }

// reboot returns a world on a fresh, fault-free clock holding what the
// devices hold: after a crash, what survived it (fault.Store.CrashImage);
// otherwise every write issued, synced or not.
func (w *World) reboot() *World {
	r := crashWorld(0)
	img := func(st *fault.Store) []byte {
		if w.crashed() {
			return st.CrashImage()
		}
		return st.Image()
	}
	r.log = fault.NewStoreFrom(r.Log, img(w.log))
	for id, st := range w.areas {
		r.areas[id] = fault.NewStoreFrom(r.Area, img(st))
	}
	return r
}

// same reports whether w's devices hold exactly what o's do.
func (w *World) same(o *World) bool {
	if string(w.log.Image()) != string(o.log.Image()) || len(w.areas) != len(o.areas) {
		return false
	}
	for id, st := range w.areas {
		if p := o.areas[id]; p == nil || string(st.Image()) != string(p.Image()) {
			return false
		}
	}
	return true
}

// --- the crash enumerator ---

// A trial is one run of a crash workload on a crash world of its own. run
// runs the workload to its end or its first error, the crash; tally then
// reports the events before the crash window, the event from which only a
// sample of points is kept (0: none), the acknowledgements and the log bytes;
// check reboots onto what survived and holds the workload's model to it,
// deciding a 2PC branch left in doubt by commit, and returns the redo restart
// applied if it counts it.
type trial interface {
	run()
	world() *World
	tally() (setup, writesFrom int64, acked int, logBytes int64)
	check(commit bool) (redo int, err error)
	close()
}

// A workload builds a trial's database, durably: no crash point falls before
// the trial runs.
type workload func(seed int64) (trial, error)

// CrashMode aggregates the trials of one crash mode.
type CrashMode struct {
	Mode         string `json:"mode"` // "clean", "torn", "garbage", "process"
	Trials       int    `json:"trials"`
	Consistent   int    `json:"consistent"`
	Inconsistent int    `json:"inconsistent"`
}

// CrashReport is one workload's enumeration.
type CrashReport struct {
	Seed           int64       `json:"seed"`
	SetupEvents    int64       `json:"setup_events"`
	TotalEvents    int64       `json:"total_events"`
	CrashPoints    int         `json:"crash_points"`
	Sampled        bool        `json:"sampled"` // true when a bounded sample ran instead of full enumeration
	Trials         int         `json:"trials"`
	Consistent     int         `json:"consistent"`
	Inconsistent   int         `json:"inconsistent"`
	Modes          []CrashMode `json:"modes"`
	MeanRedo       float64     `json:"mean_redo_applied,omitempty"`
	WorkloadLog    int64       `json:"workload_log_bytes"`     // log written by the fault-free run
	Failures       []string    `json:"failures,omitempty"`     // first few inconsistency descriptions
	WorkloadAcked  int         `json:"workload_acked_commits"` // in the fault-free run
	WorkloadEvents string      `json:"workload_event_window"`
}

// crashModes are the three ways a power loss can tear the fatal write, and
// the process's death, which tears nothing and loses only what was never
// written.
var crashModes = []struct {
	name        string
	tearSectors int
	garbage     bool
	process     bool
}{
	{"clean", 0, false, false},
	{"torn", 1, false, false},
	{"garbage", 1, true, false},
	{"process", 0, false, true},
}

// writeBackPoints is how many of a commit's page writes enumerate keeps as
// crash points when a workload marks where they start (writesFrom): they are
// crash points of one kind, and a long transaction has a thousand.
const writeBackPoints = 8

// enumerate enumerates wl's crash points. sample <= 0 runs the full
// enumeration; otherwise at most sample evenly spaced crash points run (the
// CI short mode). Every trial replays the workload from scratch with the
// crash scheduled, so garbage bytes and event interleavings reproduce exactly
// from (seed, crash point, mode).
func enumerate(seed int64, sample int, wl workload) (CrashReport, error) {
	rep := CrashReport{Seed: seed}
	base, err := wl(seed)
	if err != nil {
		return rep, fmt.Errorf("baseline setup: %w", err)
	}
	base.run()
	if base.world().crashed() {
		return rep, fmt.Errorf("baseline run crashed with no fault scheduled")
	}
	var from int64
	rep.SetupEvents, from, rep.WorkloadAcked, rep.WorkloadLog = base.tally()
	rep.TotalEvents = base.world().Area.Events()
	base.close()
	rep.WorkloadEvents = fmt.Sprintf("(%d, %d]", rep.SetupEvents, rep.TotalEvents)
	points := upTo(rep.TotalEvents)[rep.SetupEvents:]
	if from > rep.SetupEvents {
		// Every point before the page writes, and a few of them.
		rep.Sampled = true
		k := int(from - rep.SetupEvents)
		points = append(points[:k:k], spread(points[k:], writeBackPoints)...)
	}
	if sample > 0 && sample < len(points) {
		rep.Sampled = true
		points = spread(points, sample)
	}
	rep.CrashPoints = len(points)
	var totalRedo int
	for mi, mode := range crashModes {
		m := CrashMode{Mode: mode.name, Trials: len(points)}
		for _, n := range points {
			t, err := wl(seed)
			if err != nil {
				return rep, fmt.Errorf("setup (crash at %d): %w", n, err)
			}
			if inj := t.world().Area; mode.process {
				inj.KillAt(n)
			} else {
				inj.SetCrashPoint(n, mode.tearSectors, mode.garbage)
			}
			t.run()
			if !t.world().crashed() {
				return rep, fmt.Errorf("crash at event %d never fired (%s)", n, t.world().Area)
			}
			redo, err := t.check(mi != 1) // every crash point sees both decisions
			t.close()
			if err != nil {
				m.Inconsistent++
				if len(rep.Failures) < 8 {
					rep.Failures = append(rep.Failures, fmt.Sprintf("crash@%d mode=%s: %v", n, mode.name, err))
				}
				continue
			}
			m.Consistent++
			totalRedo += redo
		}
		rep.Trials += m.Trials
		rep.Consistent += m.Consistent
		rep.Inconsistent += m.Inconsistent
		rep.Modes = append(rep.Modes, m)
	}
	if rep.Consistent > 0 {
		rep.MeanRedo = float64(totalRedo) / float64(rep.Consistent)
	}
	return rep, nil
}

// decisions reads what l decided of each transaction — TCommit for a winner,
// TPrepare for a branch in doubt, TAbort for one rolled back — and checks
// that every acknowledgement in acked is durable: a commit or rollback as
// itself, a yes vote as itself or as the decision after it.
func decisions(l *wal.Log, acked map[uint64]wal.Type) (map[uint64]wal.Type, error) {
	decided := make(map[uint64]wal.Type)
	if err := l.Iterate(wal.FirstLSN(), func(_ page.LSN, rec *wal.Record) error {
		switch rec.Type {
		case wal.TCommit, wal.TPrepare, wal.TAbort:
			decided[rec.Tx] = rec.Type
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("scan the surviving log: %w", err)
	}
	for tx, typ := range acked {
		if d := decided[tx]; d != typ && (typ != wal.TPrepare || d == 0) {
			return nil, fmt.Errorf("acknowledged %v of tx %d is not durable", typ, tx)
		}
	}
	return decided, nil
}

// upTo returns 1..n.
func upTo(n int64) []int64 {
	points := make([]int64, n)
	for i := range points {
		points[i] = int64(i) + 1
	}
	return points
}

// spread returns k of points, evenly spaced, the first among them; all of
// them if k is not positive or there are no more than k. It is the one
// sampler of the crash and rot enumerations.
func spread(points []int64, k int) []int64 {
	if k <= 0 || len(points) <= k {
		return points
	}
	stride := float64(len(points)) / float64(k)
	picked := make([]int64, 0, k)
	for i := 0; i < k; i++ {
		picked = append(picked, points[int(float64(i)*stride)])
	}
	return picked
}

// --- restart over a bare log ---

// Restart is the product's restart (wal.Analyze, tx.Restart) over l and p.
func Restart(l *wal.Log, p wal.Pager) (*tx.Manager, *wal.RecoveryStats, error) {
	an, err := wal.Analyze(l, nil)
	if err != nil {
		return nil, nil, err
	}
	return tx.Restart(an, lock.NewManager(), p, nil)
}

// MemPager is an in-memory database image to recover a log onto: pages never
// written read as zeroes.
type MemPager struct {
	log   *wal.Log
	pages map[page.ID][]byte
}

// NewMemPager returns an empty image for l's records to be stored on.
func NewMemPager(l *wal.Log) *MemPager {
	return &MemPager{log: l, pages: make(map[page.ID][]byte)}
}

func (p *MemPager) ReadPage(id page.ID, buf []byte) error {
	clear(buf[copy(buf, p.pages[id]):])
	return nil
}

func (p *MemPager) WriteRun(proofs []wal.Logged, data []byte) error {
	if err := checkRun(p.log, proofs, data); err != nil {
		return err
	}
	for i, proof := range proofs {
		p.pages[proof.Page()] = append([]byte(nil), data[i*page.Size:(i+1)*page.Size]...)
	}
	return nil
}

// checkRun is what every pager of this package asserts of a store: the proofs
// name consecutive pages, each by a record that is in l.
func checkRun(l *wal.Log, proofs []wal.Logged, data []byte) error {
	if _, err := wal.RunOf(proofs, data); err != nil {
		return err
	}
	for _, proof := range proofs {
		if proof.Page().Area == 0 || proof.LSN() >= l.NextLSN() {
			return fmt.Errorf("store of %v on a proof at lsn %d, past the log end %d", proof.Page(), proof.LSN(), l.NextLSN())
		}
	}
	return nil
}
