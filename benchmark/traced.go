package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bess/internal/client"
	"bess/internal/lock"
	"bess/internal/rpc"
	"bess/internal/server"
)

// The traced run collects the per-layer metrics. Only benchmark/ may change
// in this issue, so every number comes from a seam the benchmark owns:
// (a) spans around its own Session calls, (b) the net.Conn wrapper under the
// client peer, (c) server.OpenMedia over timed files, (d) deltas of the
// product's own counters, (e) a direct replay against *server.Server, and
// (f) single-caller probes of pure layer functions.

// Shares of -seconds the traced run gives its two windows: the same workers
// first run untraced (the overhead reference), then traced.
const (
	untracedFrac = 0.25
	tracedFrac   = 0.5
)

// counters is every product counter the harness can read from outside.
type counters struct {
	srv   server.Stats
	lock  lock.Stats
	lsn   int64
	sess  client.Stats // summed over sessions
	cwire rpc.Stats    // client peers, summed
	swire rpc.Stats    // server-side peers, summed
	bytes int64        // both ways, all client connections

	captures, chainHits, walRebuilds int64
}

func (e *env) counters() counters {
	c := counters{srv: e.srv.Snapshot(), lock: e.srv.LockStats(), lsn: int64(e.srv.Log().NextLSN())}
	vs := e.srv.VersionStats()
	c.captures, c.chainHits, c.walRebuilds = vs.Captures, vs.ChainHits, vs.Trimmed
	for _, ss := range e.sessions {
		st := ss.s.Snapshot()
		c.sess.LocalGrants += st.LocalGrants
		c.sess.SegsShipped += st.SegsShipped
		c.sess.Drops += st.Drops
		c.sess.Refusals += st.Refusals
		addWire(&c.cwire, ss.peer.WireStats())
		c.bytes += ss.conn.bytesOut.Load() + ss.conn.bytesIn.Load()
	}
	e.peerMu.Lock()
	for _, p := range e.srvPeers {
		addWire(&c.swire, p.WireStats())
	}
	e.peerMu.Unlock()
	return c
}

func addWire(to *rpc.Stats, s rpc.Stats) {
	to.FramesSent += s.FramesSent
	to.Flushes += s.Flushes
	to.Coalesced += s.Coalesced
}

// batchLog records pushed scan batches' arrival times; a zero time separates
// passes. The hook runs on the peer's read loop.
type batchLog struct {
	mu    sync.Mutex
	times []time.Time // guarded by mu
}

func (b *batchLog) note(t time.Time) {
	b.mu.Lock()
	b.times = append(b.times, t)
	b.mu.Unlock()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func p50us(s []int64) float64 { return us(percentile(sortedCopy(s), 0.5)) }

func runTraced(cfg runCfg, sh shape, work string, fl floors, res *result) (err error) {
	rec := newRecorder()
	e, err := setupEnv(sh, work, rec, cfg.seed)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if e != nil {
			if cerr := e.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	m := map[string]float64{}

	// Scan batches are observed through the session's own hook.
	var batches batchLog
	scans := hasClass(sh.work, clsScan)
	for _, a := range sh.work {
		if a.cls == clsScan {
			e.sessions[a.sess].s.SetScanBatchHook(func(_, _ int) {
				if rec.enabled() {
					batches.note(time.Now())
				}
			})
		}
	}

	// Warm up, run untraced, then run traced — same workers, same server.
	var bg *background
	window := cfg.dur(tracedFrac)
	if hasUpdates(sh.work) {
		bg = e.startBackground(window/checkpointsPerWindow, needsPin(sh, sh.work))
	}
	e.runPhase(time.Duration(float64(window)*warmupFrac), sh.work)
	off := e.runPhase(cfg.dur(untracedFrac), sh.work)
	for _, w := range e.workers {
		w.firstObj = w.firstObj[:0]
	}
	c0 := e.counters()
	rec.on.Store(true)
	on := e.runPhase(window, sh.work)
	rec.on.Store(false)
	c1 := e.counters()
	if bg != nil {
		if err := bg.stop(); err != nil {
			return err
		}
		m["cache.versions_live_max"] = float64(bg.versionsMax)
	}

	res.count(on)
	var ops, okOps float64
	for c := range on.cls {
		ops += float64(on.cls[c].attempted)
		okOps += float64(len(on.cls[c].lat))
	}
	if okOps == 0 {
		return fmt.Errorf("no operation completed in the traced window")
	}
	up, rd, sc := &on.cls[clsUpdate], &on.cls[clsRead], &on.cls[clsScan]
	commits, reads, passes := float64(len(up.lat)), float64(len(rd.lat)), float64(len(sc.lat))

	// client
	m["client.commit_self_us"] = p50us(up.self)
	m["client.read_self_us"] = p50us(rd.self)
	if touches := float64(c1.sess.LocalGrants - c0.sess.LocalGrants); touches > 0 {
		misses := float64(c1.srv.SlottedFetches - c0.srv.SlottedFetches + c1.srv.SnapFetches - c0.srv.SnapFetches)
		if m["client.hit_rate"] = 1 - misses/touches; m["client.hit_rate"] < 0 {
			m["client.hit_rate"] = 0
		}
	}
	m["client.rpcs_per_op"] = ratio(float64(up.calls+rd.calls+sc.calls), ops)
	m["client.segs_shipped_per_commit"] = ratio(float64(c1.sess.SegsShipped-c0.sess.SegsShipped), commits)
	m["client.drops"] = float64(c1.sess.Drops - c0.sess.Drops)
	m["client.refusals"] = float64(c1.sess.Refusals - c0.sess.Refusals)
	m["client.scan_MBps"] = sc.stats(on.elapsed).mbps
	for _, t := range []struct {
		name string
		r    *classResult
	}{{"commit", up}, {"read", rd}} {
		st := t.r.stats(on.elapsed)
		m["client."+t.name+"_per_s"], m["client."+t.name+"_p50_us"], m["client."+t.name+"_p95_us"] = st.perS, st.p50Us, st.p95Us
		lat := sortedCopy(t.r.lat)
		m["client."+t.name+"_p99_us"] = us(percentile(lat, 0.99))
		if v, ok := pmax10(lat); ok {
			m["client."+t.name+"_pmax10_us"] = us(v)
		}
		m["client."+t.name+"_pmax10_n"] = float64(len(lat))
	}

	// rpc
	var turns, reqSizes, repSizes []int64
	for _, ss := range e.sessions {
		ss.conn.mu.Lock()
		turns = append(turns, ss.conn.turns...)
		reqSizes = append(reqSizes, ss.conn.reqSize...)
		repSizes = append(repSizes, ss.conn.repSize...)
		ss.conn.mu.Unlock()
	}
	m["rpc.turnaround_p50_us"] = p50us(turns)
	m["rpc.bytes_per_op"] = ratio(float64(c1.bytes-c0.bytes), okOps)
	frames := float64(c1.cwire.FramesSent - c0.cwire.FramesSent + c1.swire.FramesSent - c0.swire.FramesSent)
	m["rpc.frames_per_op"] = ratio(frames, okOps)
	m["rpc.flushes_per_op"] = ratio(float64(c1.cwire.Flushes-c0.cwire.Flushes+c1.swire.Flushes-c0.swire.Flushes), okOps)
	m["rpc.coalesced_frac"] = ratio(float64(c1.cwire.Coalesced-c0.cwire.Coalesced+c1.swire.Coalesced-c0.swire.Coalesced), frames)
	if scans {
		var gaps []int64
		n := 0
		batches.mu.Lock()
		for i, t := range batches.times {
			n++
			if i > 0 {
				gaps = append(gaps, t.Sub(batches.times[i-1]).Nanoseconds())
			}
		}
		batches.mu.Unlock()
		m["rpc.stream_batches_per_pass"] = ratio(float64(n), passes)
		m["rpc.stream_batch_gap_p95_us"] = us(percentile(sortedCopy(gaps), 0.95))
		var first []int64
		for _, w := range e.workers {
			first = append(first, w.firstObj...)
		}
		m["client.scan_first_obj_ms"] = p50us(first) / 1e3
	}

	// server, lock, wal, area, device, cache: counter deltas over the traced window
	m["server.messages_per_op"] = ratio(float64(c1.srv.Messages-c0.srv.Messages), okOps)
	m["server.pages_written_per_commit"] = ratio(float64(c1.srv.PagesWritten-c0.srv.PagesWritten), commits)
	m["server.callbacks_per_commit"] = ratio(float64(c1.srv.Callbacks-c0.srv.Callbacks), commits)
	m["lock.acquires_per_op"] = ratio(float64(c1.lock.Acquires-c0.lock.Acquires), okOps)
	m["lock.blocks"] = float64(c1.lock.Blocks - c0.lock.Blocks)
	m["lock.timeouts"] = float64(c1.lock.Timeouts - c0.lock.Timeouts)
	// With no commits in the window the denominator is 1, so a sync the
	// workload should not have caused still shows.
	perCommit := commits
	if perCommit == 0 {
		perCommit = 1
	}
	m["wal.syncs_per_commit"] = float64(c1.srv.WALSyncs-c0.srv.WALSyncs) / perCommit
	m["wal.grouped_frac"] = ratio(float64(c1.srv.WALGroupedCommits-c0.srv.WALGroupedCommits), float64(c1.srv.WALFlushes-c0.srv.WALFlushes))
	m["wal.bytes_per_commit"] = float64(c1.lsn-c0.lsn) / perCommit
	d := e.dev
	m["area.read_page_us"] = ratio(float64(d.areaRead.ns.Load()), float64(d.areaRead.n.Load())) / 1e3
	m["area.reads_per_read_op"] = ratio(float64(d.areaRead.n.Load()), okOps)
	m["area.read_bytes_per_op"] = ratio(float64(d.areaRead.bytes.Load()), okOps)
	m["area.write_bytes_per_commit"] = float64(d.areaWrite.bytes.Load()) / perCommit
	d.mu.Lock()
	m["device.wal_sync_p50_us"] = p50us(d.walSyncs)
	d.mu.Unlock()
	m["device.wal_sync_busy_frac"] = float64(d.walSync.ns.Load()) / float64(on.elapsed.Nanoseconds())
	m["device.wal_write_bytes_per_commit"] = float64(d.walWrite.bytes.Load()) / perCommit
	m["device.area_syncs"] = float64(d.areaSy.n.Load())
	m["device.area_sync_ms"] = float64(d.areaSy.ns.Load()) / 1e6
	m["cache.chain_hits_per_read"] = ratio(float64(c1.chainHits-c0.chainHits), reads)
	m["cache.wal_rebuilds_per_read"] = ratio(float64(c1.walRebuilds-c0.walRebuilds), reads)
	m["cache.captures_per_commit"] = ratio(float64(c1.captures-c0.captures), commits)
	checkpointMetrics(rec, m)

	// trace.overhead_frac: the traced window against the untraced one.
	rate := func(p *phaseResult) float64 {
		if scans {
			return p.cls[clsScan].stats(p.elapsed).mbps
		}
		return p.cls[clsUpdate].stats(p.elapsed).perS + p.cls[clsRead].stats(p.elapsed).perS
	}
	m["trace.overhead_frac"] = 1 - ratio(rate(on), rate(off))

	// The reader alone must not touch the lock manager.
	if rd.attempted > 0 {
		if commits == 0 {
			m["lock.reader_acquires_per_op"] = m["lock.acquires_per_op"]
		} else {
			var readers []assign
			for _, a := range sh.work {
				if a.cls == clsRead {
					readers = append(readers, a)
				}
			}
			l0 := e.srv.LockStats().Acquires
			alone := e.runPhase(cfg.dur(0.05), readers)
			m["lock.reader_acquires_per_op"] = ratio(float64(e.srv.LockStats().Acquires-l0), float64(alone.cls[clsRead].attempted))
		}
	}
	if needsPin(sh, sh.work) {
		// What the pin hides (see pinEvery): the same workers without it.
		v0 := e.srv.VersionStats().Trimmed
		bare := e.runPhase(cfg.dur(0.15), sh.work)
		rebuilds := e.srv.VersionStats().Trimmed - v0
		r := &bare.cls[clsRead]
		res.Attempted += r.attempted + bare.cls[clsUpdate].attempted
		res.Failed += r.failed + bare.cls[clsUpdate].failed
		m["cache.unpinned_rebuilds_per_read"] = ratio(float64(rebuilds), float64(len(r.lat)))
		if lat := sortedCopy(r.lat); rebuilds > 0 && int(rebuilds) <= len(lat) {
			// The rebuilds are the slowest reads by two orders of magnitude.
			m["cache.unpinned_rebuild_ms"] = us(percentile(lat[len(lat)-int(rebuilds):], 0.5)) / 1e3
		}
	}
	if scans {
		// Reference for scan_MBps: the per-segment pull cursor, same data.
		w := e.workers[sh.work[0].sess]
		var bytes int64
		t0 := time.Now()
		for i := 0; i < 3; i++ {
			n, err := w.scanPass(0, true)
			if err != nil {
				return fmt.Errorf("pull scan: %w", err)
			}
			bytes += n
			w.afterOp(clsScan)
		}
		m["client.scan_pull_MBps"] = float64(bytes) / (1 << 20) / time.Since(t0).Seconds()
	}

	// (e) replay with the recorder on so device time is visible, then (f) probes.
	for _, w := range e.workers {
		w.s.DropAllCached() // the replay session must not pay callbacks to idle sessions
	}
	rec.on.Store(true)
	ts, perOp, err := e.replay(cfg.seed, cfg.dur(0.08))
	rec.on.Store(false)
	if err != nil {
		return err
	}
	m["server.commit_us"], m["server.commit_self_us"] = p50us(ts.commit), p50us(ts.commitSelf)
	m["server.fetchseg_us"], m["server.fetchseg_self_us"] = p50us(ts.fetch), p50us(ts.fetchSelf)
	m["server.snapfetch_us"], m["server.snapfetch_self_us"] = p50us(ts.snapFetch), p50us(ts.snapFetchSelf)
	if err := probeCodecs(e, cfg.probe, m); err != nil {
		return err
	}
	probeLock(cfg.probe, m)
	if err := probeWAL(work, m); err != nil {
		return err
	}
	req, rep := int(percentile(sortedCopy(reqSizes), 0.5)), int(percentile(sortedCopy(repSizes), 0.5))
	if err := probeEcho(req, rep, cfg.probe, m); err != nil {
		return err
	}

	// budget: client self time + the rpc layer's own cost per call + the
	// server time the replay measured, against the end-to-end median.
	budget := func(r *classResult, server []int64) float64 {
		if len(r.lat) == 0 {
			return 0
		}
		p50 := p50us(r.lat)
		attributed := p50us(r.self) + ratio(float64(r.calls), float64(r.attempted))*m["rpc.echo_rtt_us"] + p50us(server)
		return (p50 - attributed) / p50
	}
	m["budget.commit_unattributed_frac"] = budget(up, perOp[clsUpdate])
	m["budget.read_unattributed_frac"] = budget(rd, perOp[clsRead])

	for name, v := range fl {
		m[name] = v
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if err := rec.writeJSONL(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl")); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}

	// server.reopen_s needs a server that can restart: OpenMedia keeps its
	// catalog in memory. Run the workload briefly on a plain server.Open
	// system and time its restart (recovery over that short log).
	if hasUpdates(sh.work) {
		cerr := e.close()
		e = nil
		if cerr != nil {
			return cerr
		}
		plain, err := setupEnv(sh, work, nil, cfg.seed)
		if err != nil {
			return fmt.Errorf("reopen probe: set-up: %w", err)
		}
		plain.runPhase(cfg.dur(0.08), sh.work)
		reopen, checked, wrong, err := plain.reopenVerify()
		if cerr := plain.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("reopen probe: %w", err)
		}
		res.Attempted += checked
		res.Failed += wrong
		m["server.reopen_s"] = reopen.Seconds()
	}

	for _, def := range perLayer {
		res.Metrics[def.Name] = value{m[def.Name], def.Unit}
	}
	return nil
}

// checkpointMetrics reads the checkpoint and commit spans back: how long a
// checkpoint takes, and how much slower the median commit is while one runs.
func checkpointMetrics(rec *recorder, m map[string]float64) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var ckpts []span
	for _, s := range rec.spans {
		if s.Name == "server.checkpoint" {
			ckpts = append(ckpts, s)
		}
	}
	if len(ckpts) == 0 {
		return
	}
	var total int64
	for _, c := range ckpts {
		total += c.End - c.Start
	}
	m["server.checkpoint_ms"] = float64(total) / float64(len(ckpts)) / 1e6
	var during, all []int64
	for _, s := range rec.spans {
		if s.Name != classNames[clsUpdate] {
			continue
		}
		all = append(all, s.End-s.Start)
		for _, c := range ckpts {
			if s.Start < c.End && c.Start < s.End {
				during = append(during, s.End-s.Start)
				break
			}
		}
	}
	if len(during) > 0 {
		m["server.checkpoint_stall_us"] = p50us(during) - p50us(all)
	}
}
