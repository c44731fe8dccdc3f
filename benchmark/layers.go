package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bess/internal/client"
	"bess/internal/lock"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/segment"
	"bess/internal/server"
	"bess/internal/wal"
)

// --- floors: what the machine allows, measured in-process in the bench dir ---

// floors maps each floor.* metric name to its value.
type floors map[string]float64

const segBytes = 512 << 10 // one scan_stream segment, the unit the CRC and memmove floors use

func measureFloors(dir string) (floors, error) {
	fl := floors{}
	// Raw 4 KB write + fsync on the bench directory's filesystem.
	f, err := os.CreateTemp(dir, "floor-fsync-")
	if err != nil {
		return fl, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	blk := make([]byte, page.Size)
	var syncs []int64
	for i := 0; i < 48; i++ {
		t0 := time.Now()
		if _, err := f.WriteAt(blk, int64(i)*page.Size); err != nil {
			return fl, err
		}
		if err := f.Sync(); err != nil {
			return fl, err
		}
		syncs = append(syncs, time.Since(t0).Nanoseconds())
	}
	fl["floor.fsync_p50_us"] = us(percentile(sortedCopy(syncs), 0.5))

	// Loopback TCP: 64-byte ping-pong, then one-way bulk copy.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fl, err
	}
	defer lis.Close()
	const bulk = 128 << 20
	srvDone := make(chan error, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			srvDone <- err
			return
		}
		defer c.Close()
		ping := make([]byte, 64)
		for i := 0; i < pingPongs; i++ {
			if _, err := io.ReadFull(c, ping); err != nil {
				srvDone <- err
				return
			}
			if _, err := c.Write(ping); err != nil {
				srvDone <- err
				return
			}
		}
		_, err = io.CopyN(io.Discard, c, bulk)
		if err == nil {
			_, err = c.Write(ping[:1]) // tell the sender the last byte arrived
		}
		srvDone <- err
	}()
	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return fl, err
	}
	defer c.Close()
	ping := make([]byte, 64)
	var rtts []int64
	for i := 0; i < pingPongs; i++ {
		t0 := time.Now()
		if _, err := c.Write(ping); err != nil {
			return fl, err
		}
		if _, err := io.ReadFull(c, ping); err != nil {
			return fl, err
		}
		rtts = append(rtts, time.Since(t0).Nanoseconds())
	}
	fl["floor.loopback_rtt_us"] = us(percentile(sortedCopy(rtts), 0.5))
	chunk := make([]byte, 256<<10)
	t0 := time.Now()
	for sent := 0; sent < bulk; sent += len(chunk) {
		if _, err := c.Write(chunk); err != nil {
			return fl, err
		}
	}
	if _, err := io.ReadFull(c, ping[:1]); err != nil {
		return fl, err
	}
	fl["floor.loopback_MBps"] = float64(bulk) / (1 << 20) / time.Since(t0).Seconds()
	if err := <-srvDone; err != nil {
		return fl, err
	}

	// CRC-32C and memmove over one 512 KB segment image.
	src, dst := make([]byte, segBytes), make([]byte, segBytes)
	for i := range src {
		src[i] = byte(i * 7)
	}
	const rounds = 400
	t0 = time.Now()
	var sum uint32
	for i := 0; i < rounds; i++ {
		sum += crc32.Checksum(src, castagnoli)
	}
	fl["floor.crc32c_GBps"] = float64(rounds*segBytes) / 1e9 / time.Since(t0).Seconds()
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		copy(dst, src)
	}
	fl["floor.memmove_GBps"] = float64(rounds*segBytes) / 1e9 / time.Since(t0).Seconds()
	sink = uint64(sum) + uint64(dst[0])
	return fl, nil
}

const pingPongs = 2000

var sink uint64 // keeps probe results alive

// --- seam (f): single-caller probes of pure layer functions ---

// timeIt reports the mean ns of fn over enough calls to fill ~budget.
func timeIt(budget time.Duration, fn func()) float64 {
	fn() // warm
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(t0)
		if d >= budget || n >= 1<<20 {
			return float64(d.Nanoseconds()) / float64(n)
		}
		if d <= 0 {
			n *= 16
		} else {
			n = int(float64(n)*float64(budget)/float64(d)) + 1
		}
	}
}

// probeCodecs times the proto and segment functions on one of the
// workload's own segment images, and a commit of the workload's group size.
func probeCodecs(e *env, probeBudget time.Duration, m map[string]float64) error {
	sh := e.sh
	sl, ov, data, err := e.srv.FetchSeg(0, e.segs[0][0])
	if err != nil {
		return fmt.Errorf("probe: fetch image: %w", err)
	}
	img := proto.SegImage{Seg: e.segs[0][0], Slotted: sl, Overflow: ov, Data: data}

	dec, err := segment.DecodeSlotted(sl)
	if err != nil {
		return err
	}
	m["segment.decode_us"] = timeIt(probeBudget, func() {
		d, _ := segment.DecodeSlotted(sl)
		sink += uint64(len(d.Slots))
	}) / 1e3
	verify := timeIt(probeBudget, func() {
		if dec.VerifySections() != nil || dec.VerifyData(data) != nil {
			sink++
		}
	})
	m["segment.verify_us"] = verify / 1e3
	m["segment.verify_GBps"] = float64(len(data)+len(ov)) / verify
	m["segment.encode_us"] = timeIt(probeBudget, func() { sink += uint64(len(dec.EncodeSlotted())) }) / 1e3

	buf := make([]byte, 0, 2*(len(sl)+len(data))+1024)
	m["proto.segimage_encode_ns"] = timeIt(probeBudget, func() { buf = proto.AppendSegImage(buf[:0], &img) })
	enc := proto.AppendSegImage(nil, &img)
	m["proto.segimage_decode_ns"] = timeIt(probeBudget, func() {
		d, _ := proto.DecodeSegImage(enc)
		sink += uint64(len(d.Data))
	})

	images := make([]proto.SegImage, sh.group)
	for i := range images {
		images[i] = img
	}
	cbuf := make([]byte, 0, sh.group*cap(buf))
	m["proto.commit_encode_ns"] = timeIt(probeBudget, func() { cbuf = proto.AppendCommitArgs(cbuf[:0], 1, 1, images) })
	cenc := proto.AppendCommitArgs(nil, 1, 1, images)
	m["proto.commit_decode_ns"] = timeIt(probeBudget, func() {
		_, _, segs, _ := proto.DecodeCommitArgs(cenc)
		sink += uint64(len(segs))
	})

	// One pushed batch: as many images as fit the server's 1 MB default.
	per := len(sl) + len(ov) + len(data)
	n := (1 << 20) / per
	if n < 1 {
		n = 1
	}
	batch := proto.ScanBatch{Images: make([]proto.SegImage, n)}
	for i := range batch.Images {
		batch.Images[i] = img
	}
	benc := proto.AppendScanBatch(nil, &batch)
	m["proto.scanbatch_decode_ns"] = timeIt(probeBudget, func() {
		b, _ := proto.DecodeScanBatch(benc)
		sink += uint64(len(b.Images))
	})

	var ms0, ms1 runtime.MemStats
	const rounds = 200
	runtime.ReadMemStats(&ms0)
	for i := 0; i < rounds; i++ {
		cbuf = proto.AppendCommitArgs(cbuf[:0], 1, 1, images)
		_, _, segs, _ := proto.DecodeCommitArgs(cenc)
		buf = proto.AppendSegImage(buf[:0], &img)
		d, _ := proto.DecodeSegImage(enc)
		b, _ := proto.DecodeScanBatch(benc)
		sink += uint64(len(segs) + len(d.Data) + len(b.Images))
	}
	runtime.ReadMemStats(&ms1)
	m["proto.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / rounds
	return nil
}

// probeLock times an uncontended exclusive acquire + release.
func probeLock(probeBudget time.Duration, m map[string]float64) {
	lm := lock.NewManager()
	defer lm.Close()
	name := lock.Name{Kind: lock.KindSegment, Q0: 1, Q1: 1}
	m["lock.acquire_release_ns"] = timeIt(probeBudget, func() {
		if lm.Acquire(1, name, lock.X, time.Second) != nil {
			sink++
		}
		lm.ReleaseAll(1)
	})
}

// probeWAL times the log on a file in the bench dir with the record size the
// server's full-page logging produces: append alone, append + forced flush,
// re-verification, and reopening (the scan for the durable end).
func probeWAL(dir string, m map[string]float64) error {
	path := filepath.Join(dir, "probe-wal.log")
	defer os.Remove(path)
	l, err := wal.OpenFile(path)
	if err != nil {
		return err
	}
	before, after := make([]byte, page.Size), make([]byte, page.Size)
	for i := range after {
		after[i] = byte(i)
	}
	rec := func(tx uint64) *wal.Record {
		return &wal.Record{Type: wal.TUpdate, Tx: tx, Page: page.ID{Area: 1, Page: 7}, Before: before, After: after}
	}
	var flushes []int64
	for i := 0; i < 40; i++ {
		t0 := time.Now()
		lsn, err := l.Append(rec(uint64(i)))
		if err == nil {
			err = l.Flush(lsn)
		}
		if err != nil {
			l.Close()
			return fmt.Errorf("probe: wal append+flush: %w", err)
		}
		flushes = append(flushes, time.Since(t0).Nanoseconds())
	}
	m["wal.append_flush_us"] = us(percentile(sortedCopy(flushes), 0.5))
	const appends = 4000 // ~32 MB of records, flushed once
	t0 := time.Now()
	for i := 0; i < appends; i++ {
		if _, err := l.Append(rec(uint64(i))); err != nil {
			l.Close()
			return fmt.Errorf("probe: wal append: %w", err)
		}
	}
	m["wal.append_ns"] = float64(time.Since(t0).Nanoseconds()) / appends
	if err := l.Flush(0); err != nil {
		l.Close()
		return err
	}
	t0 = time.Now()
	vs, err := l.Verify()
	if err != nil {
		l.Close()
		return fmt.Errorf("probe: wal verify: %w", err)
	}
	m["wal.verify_MBps"] = float64(vs.Bytes) / (1 << 20) / time.Since(t0).Seconds()
	if err := l.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	l, err = wal.OpenFile(path)
	if err != nil {
		return fmt.Errorf("probe: wal reopen: %w", err)
	}
	m["wal.reopen_ms_per_MB"] = float64(time.Since(t0).Nanoseconds()) / 1e6 / (float64(vs.Bytes) / (1 << 20))
	return l.Close()
}

// probeEcho measures the rpc layer alone, a CallRaw echo over its own
// loopback connection: round-trip time at the workload's median request
// size, bandwidth at the larger of its median request and reply sizes.
func probeEcho(reqBytes, repBytes int, probeBudget time.Duration, m map[string]float64) error {
	if repBytes < reqBytes {
		repBytes = reqBytes
	}
	lis, err := rpc.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lis.Close()
	accepted := make(chan *rpc.Peer, 1)
	go func() {
		p, err := lis.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		p.Handle("BenchEcho", func(body []byte) ([]byte, error) { return body, nil })
		accepted <- p
	}()
	p, err := rpc.Dial(lis.Addr())
	if err != nil {
		return err
	}
	defer p.Close()
	sp := <-accepted
	if sp == nil {
		return fmt.Errorf("probe: echo accept failed")
	}
	defer sp.Close()
	echo := func(n int) (float64, error) {
		body := make([]byte, n)
		var callErr error
		ns := timeIt(probeBudget, func() {
			if _, err := p.CallRaw("BenchEcho", body); err != nil {
				callErr = err
			}
		})
		return ns, callErr
	}
	ns, err := echo(reqBytes)
	if err != nil {
		return fmt.Errorf("probe: echo: %w", err)
	}
	m["rpc.echo_rtt_us"] = ns / 1e3
	if ns, err = echo(repBytes); err != nil {
		return fmt.Errorf("probe: echo: %w", err)
	}
	m["rpc.echo_MBps"] = 2 * float64(repBytes) / (1 << 20) / (ns / 1e9)
	return nil
}

// --- seam (e): direct replay against *server.Server, no wire ---

// timedServer is a *server.Server whose hot methods are timed. A session
// opened on it (client.Open accepts any proto.Conn and finds SetCallback
// through the embedded server) replays the workload's operation stream with
// no rpc layer in between. Single caller: device time during a call is the
// devStats delta.
type timedServer struct {
	*server.Server
	dev *devStats

	opNs                     int64 // server time of the operation in progress
	commit, commitSelf       []int64
	fetch, fetchSelf         []int64
	snapFetch, snapFetchSelf []int64
}

func (t *timedServer) timed(all, self *[]int64, fn func()) {
	dev0 := t.dev.busyNs.Load()
	t0 := time.Now()
	fn()
	d := time.Since(t0).Nanoseconds()
	t.opNs += d
	if all != nil {
		*all = append(*all, d)
		*self = append(*self, d-(t.dev.busyNs.Load()-dev0))
	}
}

func (t *timedServer) NewTx() (id uint64, err error) {
	t.timed(nil, nil, func() { id, err = t.Server.NewTx() })
	return
}

func (t *timedServer) Lock(c uint32, tx uint64, seg proto.SegKey, mode proto.LockMode) (err error) {
	t.timed(nil, nil, func() { err = t.Server.Lock(c, tx, seg, mode) })
	return
}

func (t *timedServer) SegInfo(seg proto.SegKey) (n int, err error) {
	t.timed(nil, nil, func() { n, err = t.Server.SegInfo(seg) })
	return
}

func (t *timedServer) Commit(c uint32, tx uint64, segs []proto.SegImage) (err error) {
	t.timed(&t.commit, &t.commitSelf, func() { err = t.Server.Commit(c, tx, segs) })
	return
}

func (t *timedServer) FetchSeg(c uint32, seg proto.SegKey) (sl, ov, data []byte, err error) {
	t.timed(&t.fetch, &t.fetchSelf, func() { sl, ov, data, err = t.Server.FetchSeg(c, seg) })
	return
}

func (t *timedServer) SnapOpen(c uint32) (snap, stamp uint64, err error) {
	t.timed(nil, nil, func() { snap, stamp, err = t.Server.SnapOpen(c) })
	return
}

func (t *timedServer) SnapClose(c uint32, snap uint64) (err error) {
	t.timed(nil, nil, func() { err = t.Server.SnapClose(c, snap) })
	return
}

func (t *timedServer) SnapFetchSeg(c uint32, snap uint64, seg proto.SegKey) (sl, ov, data []byte, err error) {
	t.timed(&t.snapFetch, &t.snapFetchSelf, func() { sl, ov, data, err = t.Server.SnapFetchSeg(c, snap, seg) })
	return
}

// replay runs the first session's operation stream (same seed, so the same
// keys) against the server directly for about budget, and returns the server
// time per operation of each class.
func (e *env) replay(seed int64, budget time.Duration) (*timedServer, [nClasses][]int64, error) {
	var perOp [nClasses][]int64
	ts := &timedServer{Server: e.srv, dev: e.dev}
	s, err := client.Open(ts, "bench-replay", dbName, false)
	if err != nil {
		return nil, perOp, fmt.Errorf("replay: open session: %w", err)
	}
	w := newWorker(e, 0, s, nil, seed)
	var classes []class
	for _, a := range e.sh.work {
		if a.cls != clsScan && (len(classes) == 0 || classes[0] != a.cls) {
			classes = append(classes, a.cls)
		}
	}
	if len(classes) == 0 { // scan_stream: the calls under a scan are fetches
		classes = []class{clsRead}
	}
	w.exact = len(classes) == 1 && classes[0] == clsRead
	deadline := time.Now().Add(budget)
	for i := 0; time.Now().Before(deadline) && i < 4000; i++ {
		cls := classes[i%len(classes)]
		ts.opNs = 0
		if _, err := w.do(cls); err != nil {
			return nil, perOp, fmt.Errorf("replay: %s: %w", classNames[cls], err)
		}
		perOp[cls] = append(perOp[cls], ts.opNs)
		w.afterOp(cls)
	}
	e.srv.Disconnect(s.Client())
	return ts, perOp, nil
}
