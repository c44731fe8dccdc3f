package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bess/internal/client"
	"bess/internal/swizzle"
	"bess/internal/vmem"
)

// worker drives one session in a closed loop: the next operation starts only
// after the previous one returned, as an application linking the client
// library would.
type worker struct {
	e    *env
	idx  int
	s    *client.Session
	ss   *sess // nil for the direct (no-wire) replay session
	rng  *rand.Rand
	zipf *rand.Zipf
	buf  []byte

	exact    bool     // no writer runs in the current phase (set by runPhase): counters must equal the model
	lastSeen []uint64 // per object of file 0: highest counter a snapshot read saw
	firstObj []int64  // per scan pass: ns from the scan call to the first object visited
}

func newWorker(e *env, idx int, s *client.Session, ss *sess, seed int64) *worker {
	// Each worker's key stream derives from the run seed and its index only.
	rng := rand.New(rand.NewSource(int64(mix64(uint64(seed)<<8 | uint64(idx)))))
	w := &worker{e: e, idx: idx, s: s, ss: ss, rng: rng, buf: make([]byte, e.sh.size)}
	if e.sh.zipf {
		w.zipf = rand.NewZipf(rng, 1.1, 1, uint64(e.sh.segs*e.sh.objs-1))
	}
	if e.sh.snapRead {
		w.lastSeen = make([]uint64, e.sh.segs*e.sh.objs)
	}
	return w
}

// errVerify marks an operation whose product calls all succeeded but whose
// output was wrong; it counts as a failed operation like any error.
var errVerify = errors.New("verification mismatch")

// draw picks the transaction's file, base segment and slot.
func (w *worker) draw() (file, seg, slot int) {
	sh := &w.e.sh
	if sh.files > 1 {
		file = w.idx % sh.files // private file per session
	}
	var key int
	if w.zipf != nil {
		key = int(w.zipf.Uint64())
	} else {
		key = w.rng.Intn(sh.segs * sh.objs)
	}
	return file, key / sh.objs, key % sh.objs
}

// member is the j-th segment of the group whose base is seg.
func (w *worker) member(seg, j int) int {
	sh := &w.e.sh
	return (seg + j*(sh.segs/sh.group)) % sh.segs
}

func (w *worker) object(file, seg, slot int) ([]byte, *swizzle.Object, error) {
	addr, err := w.s.AddrOfSlot(w.e.segs[file][seg], slot)
	if err != nil {
		return nil, nil, err
	}
	obj, err := w.s.Deref(addr)
	if err != nil {
		return nil, nil, err
	}
	b, err := obj.Bytes()
	return b, obj, err
}

// updateTx overwrites one object in each segment of the group with the next
// counter. The current bytes are checked first: the writer owns these
// objects, so they must carry exactly the model's counter.
func (w *worker) updateTx(file, seg, slot int) error {
	sh := &w.e.sh
	if err := w.s.Begin(); err != nil {
		return err
	}
	model := w.e.model[file]
	next := model[seg*sh.objs+slot] + 1
	for j := 0; j < sh.group; j++ {
		g := w.member(seg, j)
		idx := g*sh.objs + slot
		b, obj, err := w.object(file, g, slot)
		if err == nil {
			if id, c, ok := checkPayload(b); !ok || id != objectID(file, idx) || c != model[idx] {
				err = errVerify
			}
		}
		if err == nil {
			fillPayload(w.buf, objectID(file, idx), next)
			err = obj.Write(0, w.buf)
		}
		if err != nil {
			_ = w.s.Abort() // the failure already counts; Abort's own error adds nothing
			return err
		}
	}
	if err := w.s.Commit(); err != nil {
		return err // Commit aborts on its own failure
	}
	for j := 0; j < sh.group; j++ {
		model[w.member(seg, j)*sh.objs+slot] = next
	}
	return nil
}

// readTx reads one object in each segment of the group and checks every
// payload. All members of a group are always written together, so inside one
// snapshot (or with no writer running) they must agree.
func (w *worker) readTx(file, seg, slot int) error {
	sh := &w.e.sh
	// A 2PL read-only transaction ends with Abort: it holds no server locks
	// and wrote nothing, and at this commit Session.Commit forces a commit
	// record to the log (one fsync) even then, which would put the WAL on
	// the read path these workloads exist to isolate (README.md, "Findings").
	begin, end := w.s.Begin, w.s.Abort
	if sh.snapRead {
		begin, end = w.s.BeginSnapshot, w.s.EndSnapshot
	}
	if err := begin(); err != nil {
		return err
	}
	var first uint64
	for j := 0; j < sh.group; j++ {
		g := w.member(seg, j)
		idx := g*sh.objs + slot
		b, _, err := w.object(file, g, slot)
		if err == nil {
			id, c, ok := checkPayload(b)
			switch {
			case !ok || id != objectID(file, idx):
				err = errVerify // torn or misdirected read
			case j == 0:
				first = c
			case c != first:
				err = errVerify // not one snapshot
			}
			if err == nil && w.exact && c != w.e.model[file][idx] {
				err = errVerify
			}
			if err == nil && w.lastSeen != nil {
				if c < w.lastSeen[idx] {
					err = errVerify // a later snapshot saw an older version
				}
				w.lastSeen[idx] = c
			}
		}
		if err != nil {
			_ = end() // release the transaction; the failure already counts
			return err
		}
	}
	return end()
}

// scanPass visits the whole file once from a cold client cache — through
// the push-based StreamScan, or the per-segment pull cursor as a reference —
// checking every payload, the object count and the byte total. Read-only, so
// it ends with Abort like readTx.
func (w *worker) scanPass(file int, pull bool) (int64, error) {
	sh := &w.e.sh
	if err := w.s.Begin(); err != nil {
		return 0, err
	}
	var count int
	var bytes int64
	var idSum uint64
	model := w.e.model[file]
	scan := w.s.StreamScan
	if pull {
		scan = w.s.Scan
	}
	t0 := time.Now()
	err := scan(fileID(file), func(_ vmem.Addr, obj *swizzle.Object) error {
		if count == 0 {
			w.firstObj = append(w.firstObj, time.Since(t0).Nanoseconds())
		}
		b, err := obj.Bytes()
		if err != nil {
			return err
		}
		id, c, ok := checkPayload(b)
		idx := int(uint32(id))
		if !ok || id>>32 != uint64(file) || idx >= len(model) || c != model[idx] {
			return errVerify
		}
		count++
		bytes += int64(len(b))
		idSum += uint64(idx)
		return nil
	})
	if aerr := w.s.Abort(); err == nil {
		err = aerr
	}
	if err != nil {
		return 0, err
	}
	n := uint64(sh.segs * sh.objs)
	if count != int(n) || bytes != int64(n)*int64(sh.size) || idSum != n*(n-1)/2 {
		return bytes, fmt.Errorf("%w: scan saw %d objects, %d bytes", errVerify, count, bytes)
	}
	return bytes, nil
}

// do runs one operation of cls and reports the payload bytes it visited.
func (w *worker) do(cls class) (int64, error) {
	file, seg, slot := w.draw()
	switch cls {
	case clsUpdate:
		return int64(w.e.sh.group * w.e.sh.size), w.updateTx(file, seg, slot)
	case clsRead:
		return int64(w.e.sh.group * w.e.sh.size), w.readTx(file, seg, slot)
	default:
		return w.scanPass(file, false)
	}
}

// afterOp runs outside the timed operation: cold reads and cold scans drop
// the session's cached copies so the next touch misses the client cache.
func (w *worker) afterOp(cls class) {
	if cls == clsScan || (cls == clsRead && !w.e.sh.snapRead) {
		w.s.DropAllCached()
	}
}

// classResult is what one phase measured for one class.
type classResult struct {
	lat       []int64 // ns per successful operation
	opBytes   []int64 // payload bytes each of them visited
	self      []int64 // traced only: operation minus its wire turnarounds
	calls     int64   // traced only: RPCs issued inside operations
	attempted int
	failed    int
	firstErr  error
}

type phaseResult struct {
	cls     [nClasses]classResult
	elapsed time.Duration // wall clock
}

// runPhase runs the assigned workers for dur and records every operation.
func (e *env) runPhase(dur time.Duration, who []assign) *phaseResult {
	exact := !hasUpdates(who)
	type out struct {
		cls class
		classResult
	}
	outs := make([]out, len(who))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, a := range who {
		w := e.workers[a.sess]
		w.exact = exact
		o := &outs[i]
		o.cls = a.cls
		o.lat = make([]int64, 0, 1<<16)
		o.opBytes = make([]int64, 0, 1<<16)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				traced := e.rec.enabled() && w.ss != nil && w.ss.conn != nil
				var opID, calls0 int64
				if traced {
					opID = e.rec.newID()
					w.ss.conn.beginOp(opID, opID)
					calls0 = w.ss.r.Calls()
					t0 = time.Now()
				}
				n, err := w.do(o.cls)
				t1 := time.Now()
				if traced {
					wire := w.ss.conn.endOp()
					e.rec.add(classNames[o.cls], opID, 0, opID, t0, t1)
					o.calls += w.ss.r.Calls() - calls0
					if err == nil {
						o.self = append(o.self, t1.Sub(t0).Nanoseconds()-wire)
					}
				}
				w.afterOp(o.cls)
				o.attempted++
				if err != nil {
					o.failed++
					if o.firstErr == nil {
						o.firstErr = err
					}
					continue
				}
				o.lat = append(o.lat, t1.Sub(t0).Nanoseconds())
				o.opBytes = append(o.opBytes, n)
			}
		}()
	}
	wg.Wait()
	res := &phaseResult{elapsed: time.Since(start)}
	for i := range outs {
		o, c := &outs[i].classResult, &res.cls[outs[i].cls]
		c.lat = append(c.lat, o.lat...)
		c.opBytes = append(c.opBytes, o.opBytes...)
		c.self = append(c.self, o.self...)
		c.calls += o.calls
		c.attempted += o.attempted
		c.failed += o.failed
		if c.firstErr == nil {
			c.firstErr = o.firstErr
		}
	}
	return res
}
