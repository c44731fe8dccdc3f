package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"bess/internal/client"
	"bess/internal/goleak"
	"bess/internal/proto"
)

// --- E16: multiversion snapshot reads — read-only transactions that never
// block on writers (§7) ---
//
// Readers and writers share one dataset of blob objects. In base mode a
// read transaction is strict 2PL: it takes an object S lock (under the
// segment IS intention lock), so it conflicts with writer X locks both
// ways — readers queue behind in-flight writers and writers queue behind
// in-flight readers. In snap mode the read runs as a snapshot transaction:
// a pinned version stamp, zero lock-manager traffic, reads served from the
// cached copy, the version chain, or the disk. The experiment
// sweeps writer count at a fixed reader population and the read/write mix
// at a fixed worker count, on uniform and zipfian (hot-set) key streams,
// and reports throughput and latency per operation class plus the server's
// lock and version counters.

// E16 dataset defaults: 64 segments x 16 objects = 1024 keys.
const (
	e16Segs = 64
	e16Objs = 16
	e16Blob = 256
)

// SetupE16 builds the E16 dataset: one file of segs segments, objs objects
// each, on a loopback-TCP server (the E18 harness), at the default lock
// timeout. Under hot-set contention a 2PL reader that refuses a writer's
// callback and then asks for its S lock behind that writer's X closes a
// cycle; the one waits-for graph fails the reader's request at once
// (lock.ErrDeadlock), and the reader aborts and retries.
func SetupE16(segs, objs, blob int) *E18Env {
	return SetupE18(1, segs, objs, blob)
}

// E16Row is one measured configuration.
type E16Row struct {
	Mode     string  `json:"mode"`                // "base" (2PL reads) or "snap" (snapshot reads)
	Dist     string  `json:"dist"`                // key distribution
	Readers  int     `json:"readers,omitempty"`   // pure-reader workers (writer sweep)
	Writers  int     `json:"writers,omitempty"`   // pure-writer workers (writer sweep)
	Workers  int     `json:"workers,omitempty"`   // mixed workers (mix sweep)
	ReadFrac float64 `json:"read_frac,omitempty"` // per-worker read share (mix sweep)
	Seconds  float64 `json:"seconds"`

	ReadOps     int64          `json:"read_ops"`
	ReadPerSec  float64        `json:"reads_per_sec"`
	ReadLat     LatencySummary `json:"read_latency"`
	WriteOps    int64          `json:"write_ops"`
	WritePerSec float64        `json:"writes_per_sec"`
	WriteLat    LatencySummary `json:"write_latency"`
	Aborts      int64          `json:"aborts"`

	LockAcquires   int64 `json:"lock_acquires"` // server lock-manager delta
	LockBlocks     int64 `json:"lock_blocks"`
	LockTimeouts   int64 `json:"lock_timeouts"`
	Deadlocks      int64 `json:"deadlocks"`
	Refusals       int64 `json:"refusals"`        // callbacks refused, all sessions
	ReaderRefusals int64 `json:"reader_refusals"` // refused by pure-reader sessions only
	Drops          int64 `json:"drops"`           // cached copies revoked
	SnapFetches    int64 `json:"snap_fetches,omitempty"`
	ChainHits      int64 `json:"chain_hits,omitempty"`
}

// e16ReadOp is one read transaction over (seg, slot). Base mode pins the
// object with an S lock — the strict-2PL read; snap mode opens a snapshot
// and touches no locks at all.
func e16ReadOp(s *client.Session, seg proto.SegKey, slot int, snap bool) error {
	var err error
	if snap {
		err = s.BeginSnapshot()
	} else {
		err = s.Begin()
	}
	if err != nil {
		return err
	}
	ok := false
	defer func() {
		if !ok {
			_ = s.Abort()
		}
	}()
	addr, err := s.AddrOfSlot(seg, slot)
	if err != nil {
		return err
	}
	if !snap {
		if err := s.LockObject(addr, false); err != nil {
			return err
		}
	}
	obj, err := s.Deref(addr)
	if err != nil {
		return err
	}
	if _, err := obj.Bytes(); err != nil {
		return err
	}
	ok = true
	if snap {
		return s.EndSnapshot()
	}
	return s.Commit()
}

// e16WriteOp is one update transaction: overwrite the head of (seg, slot),
// which faults, takes the segment X lock, and ships the image at commit.
func e16WriteOp(s *client.Session, seg proto.SegKey, slot int, payload []byte) error {
	if err := s.Begin(); err != nil {
		return err
	}
	ok := false
	defer func() {
		if !ok {
			_ = s.Abort()
		}
	}()
	addr, err := s.AddrOfSlot(seg, slot)
	if err != nil {
		return err
	}
	obj, err := s.Deref(addr)
	if err != nil {
		return err
	}
	if err := obj.Write(0, payload); err != nil {
		return err
	}
	ok = true
	return s.Commit()
}

// runE16 drives one configuration: one worker per entry of fracs (its read
// share; 1 = pure reader, 0 = pure writer), each on its own session and
// deterministic key stream, for dur. Lock-wait and callback effects are
// measured from the server's own counters.
func runE16(env *E18Env, mode, dist string, fracs []float64, dur time.Duration, seed int64) E16Row {
	snap := mode == "snap"
	keys, err := env.srv.SegmentsOf(env.db, env.Files[0])
	must(err)
	nKeys := len(keys) * env.Objs

	lockBefore := env.srv.LockStats()
	vsBefore := env.srv.VersionStats()
	snapBefore := env.srv.Snapshot().SnapFetches

	var (
		readLat, writeLat         Hist
		readOps, writeOps, aborts atomic.Int64
		workers                   goleak.Group
	)
	sessions := make([]*client.Session, len(fracs))
	remotes := make([]*client.Remote, len(fracs))
	for i := range fracs {
		sessions[i], remotes[i] = env.dial(fmt.Sprintf("e16-%s-%d", mode, i), false)
	}
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}
	start := time.Now()
	for i, frac := range fracs {
		i, frac := i, frac
		s := sessions[i]
		st := Workload{Keys: nKeys, ReadFrac: frac, Dist: dist, Seed: seed}.Stream(i)
		workers.Go("bench.e16Worker", func(stop <-chan struct{}) {
			for {
				select {
				case <-stop:
					return
				default:
				}
				key, read := st.Next()
				seg, slot := keys[key/env.Objs], key%env.Objs
				t0 := time.Now()
				if read {
					if err := e16ReadOp(s, seg, slot, snap); err != nil {
						aborts.Add(1)
						continue
					}
					readLat.Observe(time.Since(t0))
					readOps.Add(1)
				} else {
					if err := e16WriteOp(s, seg, slot, payload); err != nil {
						aborts.Add(1)
						continue
					}
					writeLat.Observe(time.Since(t0))
					writeOps.Add(1)
				}
			}
		})
	}
	time.Sleep(dur)
	workers.Stop()
	elapsed := time.Since(start)

	row := E16Row{
		Mode:    mode,
		Dist:    dist,
		Seconds: elapsed.Seconds(),
	}
	for _, f := range fracs {
		switch f {
		case 1:
			row.Readers++
		case 0:
			row.Writers++
		default:
			row.Workers++
			row.ReadFrac = f
		}
	}
	for i := range sessions {
		st := sessions[i].Snapshot()
		row.Refusals += st.Refusals
		if fracs[i] == 1 {
			// Pure readers: in snap mode these must never refuse — a
			// snapshot accepts every callback without blocking the writer.
			row.ReaderRefusals += st.Refusals
		}
		row.Drops += st.Drops
		must(remotes[i].Close())
	}
	lockAfter := env.srv.LockStats()
	vsAfter := env.srv.VersionStats()
	row.ReadOps = readOps.Load()
	row.ReadPerSec = float64(row.ReadOps) / elapsed.Seconds()
	row.ReadLat = readLat.Summary()
	row.WriteOps = writeOps.Load()
	row.WritePerSec = float64(row.WriteOps) / elapsed.Seconds()
	row.WriteLat = writeLat.Summary()
	row.Aborts = aborts.Load()
	row.LockAcquires = lockAfter.Acquires - lockBefore.Acquires
	row.LockBlocks = lockAfter.Blocks - lockBefore.Blocks
	row.LockTimeouts = lockAfter.Timeouts - lockBefore.Timeouts
	row.Deadlocks = lockAfter.Deadlocks - lockBefore.Deadlocks
	row.SnapFetches = env.srv.Snapshot().SnapFetches - snapBefore
	row.ChainHits = vsAfter.ChainHits - vsBefore.ChainHits
	return row
}

// split builds the writer-sweep worker population: r pure readers plus w
// pure writers.
func e16Split(r, w int) []float64 {
	fr := make([]float64, 0, r+w)
	for i := 0; i < r; i++ {
		fr = append(fr, 1)
	}
	for i := 0; i < w; i++ {
		fr = append(fr, 0)
	}
	return fr
}

// e16Mix builds the mix-sweep population: n workers each at read share f.
func e16Mix(n int, f float64) []float64 {
	fr := make([]float64, n)
	for i := range fr {
		fr[i] = f
	}
	return fr
}

// E16Report is the full experiment output (BENCH_E16.json). The headline
// numbers are the read-throughput degradation factors: reads-per-second at
// the heaviest writer load over the lightest, per mode. Snapshot reads stay
// near 1.0; 2PL reads fall off as writers multiply.
type E16Report struct {
	Segments   int `json:"segments"`
	ObjsPerSeg int `json:"objs_per_seg"`
	BlobBytes  int `json:"blob_bytes"`

	WriterSweep []E16Row `json:"writer_sweep"` // 4 readers, writers swept
	MixSweep    []E16Row `json:"mix_sweep"`    // 4 workers, read share swept

	SnapReadRetention float64 `json:"snap_read_retention"` // snap reads/s at max writers / at min
	BaseReadRetention float64 `json:"base_read_retention"`
}

// RunE16 runs the experiment: the writer sweep on the zipfian stream (the
// contended shape) in both modes, then the mix sweep across read shares and
// both distributions. quick trims the axes for CI smoke.
func RunE16(env *E18Env, quick bool) E16Report {
	rep := E16Report{Segments: env.Segs, ObjsPerSeg: env.Objs, BlobBytes: env.Blob}
	writerCounts := []int{1, 2, 4, 8}
	mixFracs := []float64{0.99, 0.95, 0.8, 0.5}
	dists := []string{"zipf", "uniform"}
	dur := 1200 * time.Millisecond
	if quick {
		writerCounts = []int{1, 4}
		mixFracs = []float64{0.95, 0.5}
		dists = []string{"zipf"}
		dur = 250 * time.Millisecond
	}

	firstSnap, lastSnap, firstBase, lastBase := -1.0, -1.0, -1.0, -1.0
	for _, w := range writerCounts {
		for _, mode := range []string{"base", "snap"} {
			row := runE16(env, mode, "zipf", e16Split(4, w), dur, int64(100+w))
			rep.WriterSweep = append(rep.WriterSweep, row)
			switch mode {
			case "snap":
				if firstSnap < 0 {
					firstSnap = row.ReadPerSec
				}
				lastSnap = row.ReadPerSec
			case "base":
				if firstBase < 0 {
					firstBase = row.ReadPerSec
				}
				lastBase = row.ReadPerSec
			}
		}
	}
	if firstSnap > 0 {
		rep.SnapReadRetention = lastSnap / firstSnap
	}
	if firstBase > 0 {
		rep.BaseReadRetention = lastBase / firstBase
	}
	for _, dist := range dists {
		for _, f := range mixFracs {
			for _, mode := range []string{"base", "snap"} {
				rep.MixSweep = append(rep.MixSweep, runE16(env, mode, dist, e16Mix(4, f), dur, int64(f*1000)))
			}
		}
	}
	return rep
}

// FormatE16Row renders one row.
func FormatE16Row(r E16Row) string {
	pop := fmt.Sprintf("r=%d w=%d", r.Readers, r.Writers)
	if r.Workers > 0 {
		pop = fmt.Sprintf("n=%d mix=%.0f/%.0f", r.Workers, r.ReadFrac*100, (1-r.ReadFrac)*100)
	}
	return fmt.Sprintf("%-4s %-7s %-14s reads/s=%-8.0f %s  writes/s=%-7.0f locks=%-6d refusals=%-4d timeouts=%-3d deadlocks=%d",
		r.Mode, r.Dist, pop, r.ReadPerSec, FormatLatency(r.ReadLat), r.WritePerSec, r.LockAcquires, r.Refusals, r.LockTimeouts, r.Deadlocks)
}
