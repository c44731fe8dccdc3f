// Package bench implements the experiment harness behind the repository's
// benchmarks (bench_test.go) and the bess-bench tool. Each experiment Ei
// reproduces a figure or performance claim of the paper; DESIGN.md §4 maps
// them to paper sections and EXPERIMENTS.md records representative output.
//
// Harness goroutines — acceptors, workers, updaters — belong to a
// goleak.Group in the frame (or the environment) that starts them, stopped
// on every exit path, so a failed run cannot strand senders (DESIGN.md §4e).
package bench

import (
	"encoding/binary"
	"math/rand"
	"sync/atomic"
	"time"

	"bess/internal/baseline"
	"bess/internal/buddy"
	"bess/internal/client"
	"bess/internal/core"
	"bess/internal/largeobj"
	"bess/internal/nodeserver"
	"bess/internal/oid"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/segment"
	"bess/internal/server"
	"bess/internal/shm"
	"bess/internal/swizzle"
	"bess/internal/torture"
	"bess/internal/vmem"
	"bess/internal/wal"
)

var nodeDesc = segment.TypeDesc{Name: "BenchNode", Size: 16, RefOffsets: []int{0}}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// --- E1: pointer dereference — swizzled VM pointers vs OIDs ---

// E1Env holds a warm ring of objects reachable three ways: swizzled
// references (BeSS), a global-ref OID per hop, and an EOS-style OID table.
type E1Env struct {
	db     *core.Database
	srv    *server.Server
	Start  core.Ref
	oids   []oid.OID
	table  *baseline.OIDTable
	tStart oid.OID
}

// SetupE1 builds a ring of n nodes spread over several segments and warms
// every cache, so the measured cost is pure dereference.
func SetupE1(n int) *E1Env {
	srv := server.NewMem(1)
	db, err := core.OpenDatabase(srv, "e1", "db", true)
	must(err)
	td, err := db.RegisterType(nodeDesc)
	must(err)
	f, err := db.CreateFile("ring", core.WithGeometry(1, 8))
	must(err)
	must(db.Begin())
	refs := make([]core.Ref, n)
	for i := range refs {
		b := make([]byte, 16)
		binary.BigEndian.PutUint64(b[8:], uint64(i))
		refs[i], err = f.New(td, b)
		must(err)
	}
	for i := range refs {
		obj, err := db.Deref(refs[i])
		must(err)
		must(obj.SetRef(0, refs[(i+1)%n]))
	}
	must(db.Commit())

	// Warm everything.
	must(db.Begin())
	env := &E1Env{db: db, srv: srv, Start: refs[0]}
	env.oids = make([]oid.OID, n)
	for i := range refs {
		obj, err := db.Deref(refs[i])
		must(err)
		if _, err := obj.Ref(0); err != nil {
			panic(err)
		}
		env.oids[i] = db.GlobalRefOf(refs[i]).OID
	}
	// The EOS-style baseline: same ring as an OID table.
	env.table = baseline.NewOIDTable()
	for i := range refs {
		env.table.Put(env.oids[i], &baseline.OIDObject{
			Data: []byte{byte(i)},
			Refs: []oid.OID{env.oids[(i+1)%n]},
		})
	}
	env.tStart = env.oids[0]
	return env
}

// ChaseBeSS follows hops swizzled references.
func (e *E1Env) ChaseBeSS(hops int) {
	cur := e.Start
	for i := 0; i < hops; i++ {
		obj, err := e.db.Deref(cur)
		if err != nil {
			panic(err)
		}
		cur, err = obj.Ref(0)
		if err != nil {
			panic(err)
		}
	}
}

// ChaseOID follows hops through the hash table (EOS baseline).
func (e *E1Env) ChaseOID(hops int) {
	if _, err := e.table.Chase(e.tStart, 0, hops); err != nil {
		panic(err)
	}
}

// ChaseGlobal follows hops through global_ref-style OID resolution.
func (e *E1Env) ChaseGlobal(hops int) {
	cur := e.tStart
	for i := 0; i < hops; i++ {
		obj, err := e.db.Session().DerefOID(cur)
		if err != nil {
			panic(err)
		}
		a, err := obj.RefField(0)
		if err != nil {
			panic(err)
		}
		cur = e.db.Session().OIDOf(a)
	}
}

// Close releases the environment.
func (e *E1Env) Close() {
	_ = e.db.Abort()
	must(e.srv.Close())
}

// --- E2: operation modes — copy-on-access vs shared memory ---

// E2Env wires a server, a node server, a copy-on-access session through
// the node, and shared-memory processes on the node's cache.
type E2Env struct {
	srv   *server.Server
	node  *nodeserver.NodeServer
	sess  *client.Session
	shmP  *shm.Process
	pages []page.ID
}

// SetupE2 seeds nPages disk pages and attaches both modes.
func SetupE2(nPages int) *E2Env {
	srv := server.NewMem(1)
	cEnd, sEnd := rpc.Pipe()
	server.ServePeer(srv, sEnd)
	node, err := nodeserver.New(client.NewRemote(cEnd), "node", nPages+8, 2*nPages+16)
	must(err)
	sess, err := client.Open(node, "coa", "db", true)
	must(err)
	env := &E2Env{srv: srv, node: node, sess: sess}
	tx, err := node.NewTx()
	must(err)
	for i := 0; i < nPages; i++ {
		area, start, _, err := node.AllocRun(sess.DB(), 1)
		must(err)
		data := make([]byte, page.Size)
		data[0] = byte(i)
		must(node.WriteRun(sess.Client(), tx, sess.DB(), area, start, data))
		env.pages = append(env.pages, page.ID{Area: page.AreaID(area), Page: page.No(start)})
	}
	must(node.Publish(sess.Client(), tx, nil, nil, false))
	env.shmP, err = node.AttachShared()
	must(err)
	return env
}

// ShortTxShared touches k pages in place through the shared cache — the
// in-place mode's short transaction.
func (e *E2Env) ShortTxShared(k int) {
	var b [8]byte
	for i := 0; i < k; i++ {
		id := e.pages[i%len(e.pages)]
		r, err := e.shmP.Access(id)
		if err != nil {
			panic(err)
		}
		if err := e.shmP.WithLatch(r, func() error { return e.shmP.Read(r, b[:]) }); err != nil {
			panic(err)
		}
	}
}

// ShortTxCopy touches k pages through the node server with per-request
// copying (copy on access): each access fetches the page into the private
// space and reads the copy.
func (e *E2Env) ShortTxCopy(k int) {
	var b [8]byte
	for i := 0; i < k; i++ {
		id := e.pages[i%len(e.pages)]
		data, err := e.node.ReadRun(e.sess.DB(), uint32(id.Area), int64(id.Page), 1)
		if err != nil {
			panic(err)
		}
		copy(b[:], data)
	}
}

// Close releases the environment.
func (e *E2Env) Close() { must(e.srv.Close()) }

// --- E3: reservation greediness — lazy waves vs eager ---

// E3Result compares address-space consumption after traversing a fraction
// of a database.
type E3Result struct {
	Segments       int
	TouchedSegs    int
	LazyReserved   int64 // frames reserved by BeSS's wave scheme
	LazyMapped     int64
	EagerReserved  int64 // frames the greedy scheme reserves up front
	SlottedFetches int64
}

// RunE3 builds a database of segs segments, then dereferences one object in
// a fraction of them.
func RunE3(segs int, fraction float64) E3Result {
	srv := server.NewMem(1)
	defer func() { must(srv.Close()) }()
	db, err := core.OpenDatabase(srv, "e3", "db", true)
	must(err)
	td, err := db.RegisterType(nodeDesc)
	must(err)
	must(db.Begin())
	keys := make([]proto.SegKey, segs)
	for i := 0; i < segs; i++ {
		keys[i], err = db.Session().CreateSegment(1, 1, 4, -1)
		must(err)
		_, err := db.Session().CreateObject(keys[i], td.ID, make([]byte, 16))
		must(err)
	}
	must(db.Commit())

	// Fresh session: the measurement subject.
	sess, err := client.Open(srv, "probe", "db", false)
	must(err)
	must(sess.Begin())
	touch := int(float64(segs) * fraction)
	for i := 0; i < touch; i++ {
		addr, err := sess.AddrOfSlot(keys[i], 0)
		must(err)
		obj, err := sess.Deref(addr)
		must(err)
		var b [8]byte
		must(obj.Read(0, b[:]))
	}
	snap := sess.Mapper().Space().Snapshot()
	res := E3Result{
		Segments:     segs,
		TouchedSegs:  touch,
		LazyReserved: snap.ReservedFrames,
		LazyMapped:   snap.MappedFrames,
	}
	res.SlottedFetches = srv.Snapshot().SlottedFetches
	_ = sess.Abort()

	// The eager baseline reserves everything up front.
	eager, err := baseline.NewEagerReserver(vmem.New(), &segLister{keys: keys, slotted: 1, data: 4})
	must(err)
	res.EagerReserved = eager.Reserved
	return res
}

type segLister struct {
	keys    []proto.SegKey
	slotted int
	data    int
}

func (l *segLister) ListSegments() ([]swizzle.SegID, []int, []int, error) {
	segs := make([]swizzle.SegID, len(l.keys))
	sl := make([]int, len(l.keys))
	dt := make([]int, len(l.keys))
	for i, k := range l.keys {
		segs[i] = swizzle.SegID{Area: page.AreaID(k.Area), Start: page.No(k.Start)}
		sl[i] = l.slotted
		dt[i] = l.data
	}
	return segs, sl, dt, nil
}

// --- E4: replacement — two-level clock vs LRU under shared access ---

// E4Result reports hit ratios for one cache/workload configuration.
type E4Result struct {
	Pages, Slots, Procs int
	Accesses            int
	ClockHitRatio       float64
	LRUHitRatio         float64
}

type countingBacking struct{ fetches int64 }

func (b *countingBacking) Fetch(id page.ID) ([]byte, error) {
	b.fetches++
	d := make([]byte, page.Size)
	return d, nil
}
func (b *countingBacking) WriteBack(page.ID, []byte) error { return nil }

// RunE4 drives procs processes over a Zipf-ish page population through the
// shared cache (two-level clock) and through an LRU of the same size.
func RunE4(pages, slots, procs, accesses int, seed int64) E4Result {
	back := &countingBacking{}
	sc, err := shm.NewSharedCache(slots, 4*pages, back)
	must(err)
	ps := make([]*shm.Process, procs)
	for i := range ps {
		ps[i], err = sc.Attach()
		must(err)
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(pages-1))
	ids := make([]page.ID, accesses)
	for i := range ids {
		ids[i] = page.ID{Area: 1, Page: page.No(zipf.Uint64())}
	}
	var b [1]byte
	for i, id := range ids {
		p := ps[i%procs]
		r, err := p.Access(id)
		if err != nil {
			continue
		}
		_ = p.Read(r, b[:])
	}
	st := sc.Pool().Snapshot()
	res := E4Result{Pages: pages, Slots: slots, Procs: procs, Accesses: accesses}
	if st.Hits+st.Misses > 0 {
		res.ClockHitRatio = float64(st.Hits) / float64(st.Hits+st.Misses)
	}

	// LRU baseline over the identical trace.
	lru := baseline.NewLRU(slots)
	for _, id := range ids {
		if _, ok := lru.Get(id); !ok {
			lru.Put(id, nil)
		}
	}
	h, m, _ := lru.Stats()
	if h+m > 0 {
		res.LRUHitRatio = float64(h) / float64(h+m)
	}
	return res
}

// --- E5: large object byte-range ops vs whole rewrite ---

// E5Result compares segment I/O for one edit pattern.
type E5Result struct {
	ObjectBytes              int64
	EditBytes                int
	TreeReads, TreeWrites    int64
	RewriteReads, RewriteIOs int64 // baseline reads whole + writes whole
}

// RunE5 creates an object of size bytes and inserts editBytes in the
// middle, via the tree and via the rewrite-everything baseline.
func RunE5(size int64, editBytes int) E5Result {
	st := newMemAreaStore()
	o, err := largeobj.Create(st, size)
	must(err)
	chunk := make([]byte, 1<<16)
	for written := int64(0); written < size; written += int64(len(chunk)) {
		n := size - written
		if n > int64(len(chunk)) {
			n = int64(len(chunk))
		}
		must(o.Append(chunk[:n]))
	}
	r0, w0, _, _ := o.Stats()
	must(o.Insert(size/2, make([]byte, editBytes)))
	r1, w1, _, _ := o.Stats()

	// Baseline: read the whole object, splice in memory, write it back.
	whole := make([]byte, o.Size())
	must(o.Read(0, whole))
	segReads := (size + (1 << 16) - 1) / (1 << 16)
	segWrites := (o.Size() + (1 << 16) - 1) / (1 << 16)
	return E5Result{
		ObjectBytes: size,
		EditBytes:   editBytes,
		TreeReads:   r1 - r0, TreeWrites: w1 - w0,
		RewriteReads: segReads, RewriteIOs: segWrites,
	}
}

type memAreaStore struct {
	next page.No
	segs map[page.No][]byte
}

func newMemAreaStore() *memAreaStore {
	return &memAreaStore{next: 1, segs: make(map[page.No][]byte)}
}

func (s *memAreaStore) Alloc(nPages int) (page.No, int, error) {
	start := s.next
	s.next += page.No(nPages)
	s.segs[start] = make([]byte, nPages*page.Size)
	return start, nPages, nil
}

func (s *memAreaStore) Free(start page.No) error {
	delete(s.segs, start)
	return nil
}

func (s *memAreaStore) ReadRun(start page.No, n int, buf []byte) error {
	copy(buf, s.segs[start])
	return nil
}

func (s *memAreaStore) WriteRun(start page.No, data []byte) error {
	copy(s.segs[start], data)
	return nil
}

// --- E6: inter-transaction caching + callback locking ---

// E6Result reports server messages per transaction with and without
// inter-transaction caching.
type E6Result struct {
	Txns             int
	SegsPerTx        int
	MsgsPerTxCached  float64
	MsgsPerTxNoCache float64
	Callbacks        int64
	LocalGrantsPerTx float64
}

// RunE6 runs txns read transactions over k segments, warm-cached vs cache
// dropped at end of transaction (the no-inter-tx-caching baseline).
func RunE6(txns, k int) E6Result {
	srv := server.NewMem(1)
	defer func() { must(srv.Close()) }()
	db, err := core.OpenDatabase(srv, "e6", "db", true)
	must(err)
	td, err := db.RegisterType(nodeDesc)
	must(err)
	must(db.Begin())
	keys := make([]proto.SegKey, k)
	for i := range keys {
		keys[i], err = db.Session().CreateSegment(1, 1, 2, -1)
		must(err)
		_, err = db.Session().CreateObject(keys[i], td.ID, make([]byte, 16))
		must(err)
	}
	must(db.Commit())

	run := func(drop bool) float64 {
		sess, err := client.Open(srv, "worker", "db", false)
		must(err)
		before := srv.Snapshot().Messages
		for t := 0; t < txns; t++ {
			must(sess.Begin())
			for _, key := range keys {
				addr, err := sess.AddrOfSlot(key, 0)
				must(err)
				obj, err := sess.Deref(addr)
				must(err)
				var b [8]byte
				must(obj.Read(0, b[:]))
			}
			must(sess.Commit())
			if drop {
				sess.DropAllCached()
			}
		}
		return float64(srv.Snapshot().Messages-before) / float64(txns)
	}

	res := E6Result{Txns: txns, SegsPerTx: k}
	res.MsgsPerTxCached = run(false)
	res.MsgsPerTxNoCache = run(true)
	res.Callbacks = srv.Snapshot().Callbacks
	return res
}

// --- E7: update detection — hardware protection vs software dirty calls ---

// E7Result compares costs for a mixed read/write transaction.
type E7Result struct {
	ReadObjs, WriteObjs int
	HWFaults            int64 // protection faults taken (one per page/mode)
	HWProtectCalls      int64 // mprotect analogues
	HWLockRequests      int64 // exclusive locks actually needed
	SWLockRequests      int64 // conservative software scheme
}

// RunE7 reads r objects and writes w of them; the software baseline must
// conservatively lock on every pointer pass.
func RunE7(r, w int) E7Result {
	srv := server.NewMem(1)
	defer func() { must(srv.Close()) }()
	db, err := core.OpenDatabase(srv, "e7", "db", true)
	must(err)
	td, err := db.RegisterType(nodeDesc)
	must(err)
	f, err := db.CreateFile("objs", core.WithGeometry(1, 8))
	must(err)
	must(db.Begin())
	refs := make([]core.Ref, r)
	for i := range refs {
		refs[i], err = f.New(td, make([]byte, 16))
		must(err)
	}
	must(db.Commit())

	sess := db.Session()
	space := sess.Mapper().Space()
	f0 := space.Snapshot()
	must(db.Begin())
	var buf [8]byte
	for i, ref := range refs {
		obj, err := db.Deref(ref)
		must(err)
		must(obj.Read(8, buf[:]))
		if i < w {
			must(obj.Write(8, buf[:]))
		}
	}
	x := sess.Snapshot()
	_ = x
	must(db.Commit())
	f1 := space.Snapshot()

	// Software baseline: the compiler cannot see which of the r accesses
	// write, so every object pointer passed to a function costs an
	// exclusive lock request; writes additionally mark dirty.
	sw := baseline.NewSoftwareDetect()
	seg := swizzle.SegID{Area: 1, Start: 1}
	for i := 0; i < r; i++ {
		sw.PassPointer(seg, i%4)
		if i < w {
			sw.MarkDirty(seg, i%4)
		}
	}
	return E7Result{
		ReadObjs: r, WriteObjs: w,
		HWFaults:       f1.Faults - f0.Faults,
		HWProtectCalls: f1.ProtectCalls - f0.ProtectCalls,
		HWLockRequests: int64(len(sessWriteSegs(sess))),
		SWLockRequests: sw.Locks,
	}
}

func sessWriteSegs(s *client.Session) []proto.SegKey {
	out := map[proto.SegKey]bool{}
	for _, id := range s.Mapper().DirtySegs() {
		out[proto.SegKey{Area: uint32(id.Area), Start: int64(id.Start)}] = true
	}
	keys := make([]proto.SegKey, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	return keys
}

// --- E8: recovery — ARIES restart vs log volume ---

// E8Result reports restart work for one crash scenario.
type E8Result struct {
	Txns, UpdatesPerTx int
	Checkpoint         bool
	LogBytes           int64 // the log restart reads
	RecordsAnalyzed    int
	RedoApplied        int
	Losers             int
}

// RunE8 builds a log of txns transactions (half commit, half crash live),
// optionally checkpointed midway, then restarts. A committed transaction is
// one commit record carrying its updates; one live at the crash has logged
// them in a spill (wal.TRedo), as a transaction larger than a log buffer does,
// and has no other record.
func RunE8(txns, updates int, checkpoint bool) E8Result {
	l := wal.NewMem()
	for t := 0; t < txns; t++ {
		changes := make([]wal.Change, updates)
		for u := range changes {
			changes[u] = wal.Change{Page: page.ID{Area: 1, Page: page.No(u % 32)}, Off: uint32(u % 100), After: []byte{byte(t)}}
		}
		typ := wal.TRedo
		if t%2 == 0 {
			typ = wal.TCommit
		}
		_, err := l.Append(&wal.Record{Type: typ, Tx: uint64(t + 1), Changes: changes})
		must(err)
		if checkpoint && t == txns/2 {
			_, err := wal.Checkpoint(l, nil)
			must(err)
		}
	}
	must(l.Flush(0))
	crashed, err := wal.OpenMemFrom(l.DurableBytes())
	must(err)
	logBytes := int64(crashed.NextLSN()) // what restart reads, before its rollbacks append
	_, st, err := torture.Restart(crashed, torture.NewMemPager(crashed))
	must(err)
	return E8Result{
		Txns: txns, UpdatesPerTx: updates, Checkpoint: checkpoint, LogBytes: logBytes,
		RecordsAnalyzed: st.RecordsAnalyzed, RedoApplied: st.RedoApplied, Losers: len(st.Losers),
	}
}

// --- E9: multifile parallel scan ---

// DiskDelay models the rotational/seek latency of one segment fetch when a
// multifile's areas sit on distinct devices. The paper's parallel-I/O claim
// is about overlapping these latencies; an in-memory substrate has none, so
// the bench injects them explicitly (see DESIGN.md §2, substitution 6).
const DiskDelay = 300 * time.Microsecond

// delayConn wraps a connection, sleeping DiskDelay on every segment fetch —
// concurrent fetches by different workers overlap, as independent disks
// would.
type delayConn struct{ proto.Conn }

func (d delayConn) FetchSeg(c uint32, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	time.Sleep(DiskDelay)
	return d.Conn.FetchSeg(c, seg)
}

// E9Env is a populated multifile ready for scan sweeps.
type E9Env struct {
	srv  *server.Server
	db   *core.Database
	file *core.File
	N    int
}

// SetupE9 creates a multifile of objs objects over areas storage areas.
func SetupE9(objs, areas int) *E9Env {
	srv := server.NewMem(1)
	db, err := core.OpenDatabase(srv, "e9", "db", true)
	must(err)
	blob, err := db.RegisterType(core.TypeDesc{Name: "Blob", Size: 0})
	must(err)
	f, err := db.CreateFile("scan", core.AsMultifile(areas), core.WithGeometry(1, 2))
	must(err)
	must(db.Begin())
	for i := 0; i < objs; i++ {
		_, err := f.New(blob, make([]byte, 1000))
		must(err)
	}
	must(db.Commit())
	return &E9Env{srv: srv, db: db, file: f, N: objs}
}

// Scan runs a parallel scan with the given worker count and returns the
// number of objects visited. Fetches pay the simulated disk latency.
func (e *E9Env) Scan(workers int) int {
	var count atomic.Int64
	err := e.file.ParallelScan(delayConn{e.srv}, "db", workers, func(_ segment.TypeID, data []byte) error {
		count.Add(1)
		return nil
	})
	must(err)
	return int(count.Load())
}

// Close releases the environment.
func (e *E9Env) Close() { must(e.srv.Close()) }

// --- E10: buddy allocation ---

// E10Result reports allocator behaviour for a random workload.
type E10Result struct {
	Ops         int
	Utilization float64
	Splits      int64
	Coalesces   int64
	Failures    int
}

// RunE10 drives ops random alloc/free operations on a 2^order allocator.
func RunE10(ops, order int, seed int64) E10Result {
	a, err := buddy.New(order)
	must(err)
	rng := rand.New(rand.NewSource(seed))
	var live []int64
	fail := 0
	for i := 0; i < ops; i++ {
		if len(live) > 0 && rng.Intn(5) < 2 {
			j := rng.Intn(len(live))
			must(a.Free(live[j]))
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		off, _, err := a.Alloc(int64(1 + rng.Intn(64)))
		if err != nil {
			fail++
			continue
		}
		live = append(live, off)
	}
	return E10Result{
		Ops:         ops,
		Utilization: a.Utilization(),
		Splits:      a.Splits(),
		Coalesces:   a.Coalesces(),
		Failures:    fail,
	}
}
