package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"bess/internal/client"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/segment"
	"bess/internal/server"
	"bess/internal/swizzle"
	"bess/internal/vmem"
)

// opShape is one of the benchmark module's four workload shapes
// (benchmark/harness.go), shrunk: files, segments of dataPages data pages
// holding objs objects of size bytes each, and ops operations drawn from one
// session's seeded stream.
type opShape struct {
	name                         string
	files, segs, dataPages, objs int
	size, group                  int
	zipf, snapRead               bool
	ops                          int
	op                           func(w *opWorker) error
}

var opShapes = []opShape{
	{name: "commit", files: 2, segs: 8, dataPages: 1, objs: 16, size: 128, group: 1, ops: 40, op: (*opWorker).update},
	{name: "fetch_cold", files: 1, segs: 32, dataPages: 3, objs: 24, size: 400, group: 4, ops: 40, op: (*opWorker).coldRead},
	{name: "scan_stream", files: 1, segs: 12, dataPages: 126, objs: 124, size: 4096, group: 1, ops: 2, op: (*opWorker).scan},
	{name: "mixed", files: 1, segs: 16, dataPages: 1, objs: 16, size: 256, group: 2, zipf: true, snapRead: true, ops: 40, op: (*opWorker).mixed},
}

// TestOpCounts runs each shape in process — one session over an rpc pipe to
// a memory server, a fixed seed — and compares what its set-up and its
// operations cost, in counts that repeat exactly, with
// testdata/opcounts.golden. A count that moves fails the test: a change that
// lowers one updates the golden and says so; one that raises one says why.
// Counts that depend on scheduling (grouped syncs, coalesced flushes) and
// timings stay out.
func TestOpCounts(t *testing.T) {
	var got strings.Builder
	for _, sh := range opShapes {
		setup, ops := runOpShape(t, sh)
		for _, c := range setup {
			fmt.Fprintf(&got, "%-11s setup %-24s %d\n", sh.name, c.name, c.n)
		}
		for _, c := range ops {
			fmt.Fprintf(&got, "%-11s op    %-24s %.3f\n", sh.name, c.name, float64(c.n)/float64(sh.ops))
		}
	}
	want, err := os.ReadFile("testdata/opcounts.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("counts differ from testdata/opcounts.golden; got:\n%s", got.String())
	}
}

// count is one named counter's value.
type count struct {
	name string
	n    int64
}

// opCounters is what a shape's counts are read from.
type opCounters struct {
	srv        server.Stats
	lsn        int64
	clientWire rpc.Stats
	serverWire rpc.Stats
}

func readCounters(srv *server.Server, cp, sp *rpc.Peer) opCounters {
	return opCounters{srv: srv.Snapshot(), lsn: int64(srv.Log().NextLSN()), clientWire: cp.WireStats(), serverWire: sp.WireStats()}
}

// setupCounts are a set-up's counts, from a fresh server to its checkpoint.
func setupCounts(c opCounters) []count {
	return []count{
		{"area_pages_written", c.srv.Areas.Writes},
		{"area_write_calls", c.srv.Areas.WriteCalls},
		{"format_pages", c.srv.FormatPages},
		{"writeback_hints", c.srv.Areas.Hints},
		{"log_bytes", c.lsn},
		{"log_written_ahead", c.srv.WALWrittenAhead},
		{"frames_to_server", c.clientWire.FramesSent},
		{"bytes_to_server", c.clientWire.BytesSent},
		{"frames_to_client", c.serverWire.FramesSent},
		{"bytes_to_client", c.serverWire.BytesSent},
	}
}

// opCounts are the operations' counts, b minus a: the caller divides each by
// the number of operations.
func opCounts(a, b opCounters) []count {
	return []count{
		{"frames_to_server", b.clientWire.FramesSent - a.clientWire.FramesSent},
		{"bytes_to_server", b.clientWire.BytesSent - a.clientWire.BytesSent},
		{"frames_to_client", b.serverWire.FramesSent - a.serverWire.FramesSent},
		{"bytes_to_client", b.serverWire.BytesSent - a.serverWire.BytesSent},
		{"server_messages", b.srv.Messages - a.srv.Messages},
		{"commits", b.srv.Commits - a.srv.Commits},
		{"wal_syncs", b.srv.WALSyncs - a.srv.WALSyncs},
		{"log_bytes", b.lsn - a.lsn},
		{"area_page_reads", b.srv.Areas.Reads - a.srv.Areas.Reads},
		{"area_read_bytes", (b.srv.Areas.Reads - a.srv.Areas.Reads) * page.Size},
		{"area_pages_written", b.srv.Areas.Writes - a.srv.Areas.Writes},
		{"area_write_calls", b.srv.Areas.WriteCalls - a.srv.Areas.WriteCalls},
		{"callbacks", b.srv.Callbacks - a.srv.Callbacks},
		{"refusals", b.srv.CallbackRefusals - a.srv.CallbackRefusals},
		{"released", b.srv.Released - a.srv.Released},
	}
}

// runOpShape builds sh's data set through one session, checkpoints, and runs
// its operations, returning the set-up's counts and the operations'.
func runOpShape(t *testing.T, sh opShape) ([]count, []count) {
	t.Helper()
	srv := server.NewMem(1)
	defer srv.Close()
	cp, sp := rpc.Pipe()
	server.ServePeer(srv, sp)
	r := client.NewRemote(cp)
	defer r.Close()
	s, err := client.Open(r, "counts", "bench", true)
	if err != nil {
		t.Fatal(err)
	}
	td, err := s.RegisterType(segment.TypeDesc{Name: "BenchBlob"})
	if err != nil {
		t.Fatal(err)
	}
	w := &opWorker{sh: sh, s: s, typ: td.ID, rng: rand.New(rand.NewSource(1)), buf: make([]byte, sh.size)}
	if sh.zipf {
		w.zipf = rand.NewZipf(w.rng, 1.1, 1, uint64(sh.segs*sh.objs-1))
	}
	if err := w.populate(); err != nil {
		t.Fatal(err)
	}
	srv.WaitWriteBacks() // the last commit answered before it wrote its pages
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := readCounters(srv, cp, sp)
	for range sh.ops {
		if err := sh.op(w); err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
	}
	srv.WaitWriteBacks() // the last commit answered before it wrote its pages
	return setupCounts(before), opCounts(before, readCounters(srv, cp, sp))
}

// opWorker drives one session through a shape's set-up and operations.
type opWorker struct {
	sh    opShape
	s     *client.Session
	typ   segment.TypeID
	rng   *rand.Rand
	zipf  *rand.Zipf
	buf   []byte
	segs  [][]proto.SegKey // [file][segment]
	model [][]uint64       // [file][object]: its counter
}

// payload fills w.buf with object id's bytes at counter c.
func (w *opWorker) payload(id, c uint64) []byte {
	clear(w.buf)
	binary.BigEndian.PutUint64(w.buf[0:], id)
	binary.BigEndian.PutUint64(w.buf[8:], c)
	return w.buf
}

// populate creates every file's segments and objects, sixteen segments to a
// commit, as the benchmark's set-up does.
func (w *opWorker) populate() error {
	sh := w.sh
	for f := 0; f < sh.files; f++ {
		keys := make([]proto.SegKey, 0, sh.segs)
		for g := 0; g < sh.segs; g++ {
			seg, err := w.s.CreateSegment(uint32(f+1), 1, sh.dataPages, -1)
			if err != nil {
				return err
			}
			if g%16 == 0 {
				if err := w.s.Begin(); err != nil {
					return err
				}
			}
			for o := 0; o < sh.objs; o++ {
				if _, err := w.s.CreateObject(seg, w.typ, w.payload(uint64(f)<<32|uint64(g*sh.objs+o), 0)); err != nil {
					return err
				}
			}
			keys = append(keys, seg)
			if g%16 == 15 || g == sh.segs-1 {
				if err := w.s.Commit(); err != nil {
					return err
				}
				if err := w.s.DropAllCached(); err != nil {
					return err
				}
			}
		}
		w.segs = append(w.segs, keys)
		w.model = append(w.model, make([]uint64, sh.segs*sh.objs))
	}
	return nil
}

// draw picks an operation's file, base segment and slot.
func (w *opWorker) draw() (file, seg, slot int) {
	sh := w.sh
	file = w.rng.Intn(sh.files)
	var key int
	if w.zipf != nil {
		key = int(w.zipf.Uint64())
	} else {
		key = w.rng.Intn(sh.segs * sh.objs)
	}
	return file, key / sh.objs, key % sh.objs
}

// object reads the object at slot of the group member j of seg in file,
// checking it against the model.
func (w *opWorker) object(file, seg, j, slot int) (*swizzle.Object, int, error) {
	sh := w.sh
	g := (seg + j*(sh.segs/sh.group)) % sh.segs
	idx := g*sh.objs + slot
	addr, err := w.s.AddrOfSlot(w.segs[file][g], slot)
	if err != nil {
		return nil, 0, err
	}
	obj, err := w.s.Deref(addr)
	if err != nil {
		return nil, 0, err
	}
	b, err := obj.Bytes()
	if err != nil {
		return nil, 0, err
	}
	if want := w.payload(uint64(file)<<32|uint64(idx), w.model[file][idx]); !bytes.Equal(b, want) {
		return nil, 0, fmt.Errorf("object %d of file %d reads wrong", idx, file)
	}
	return obj, idx, nil
}

// update overwrites one object in each member of a group with the next
// counter, in one transaction.
func (w *opWorker) update() error {
	file, seg, slot := w.draw()
	if err := w.s.Begin(); err != nil {
		return err
	}
	var idxs []int
	for j := 0; j < w.sh.group; j++ {
		obj, idx, err := w.object(file, seg, j, slot)
		if err == nil {
			err = obj.Write(0, w.payload(uint64(file)<<32|uint64(idx), w.model[file][idx]+1))
		}
		if err != nil {
			return err
		}
		idxs = append(idxs, idx)
	}
	if err := w.s.Commit(); err != nil {
		return err
	}
	for _, idx := range idxs {
		w.model[file][idx]++
	}
	return nil
}

// read reads one object in each member of a group, in a transaction that
// ends with Abort — or, with snapRead, in a snapshot.
func (w *opWorker) read() error {
	file, seg, slot := w.draw()
	begin, end := w.s.Begin, w.s.Abort
	if w.sh.snapRead {
		begin, end = w.s.BeginSnapshot, w.s.EndSnapshot
	}
	if err := begin(); err != nil {
		return err
	}
	for j := 0; j < w.sh.group; j++ {
		if _, _, err := w.object(file, seg, j, slot); err != nil {
			return err
		}
	}
	return end()
}

// coldRead is a read from a cold client cache.
func (w *opWorker) coldRead() error {
	if err := w.read(); err != nil {
		return err
	}
	return w.s.DropAllCached()
}

// mixed alternates an update and a snapshot read.
func (w *opWorker) mixed() error {
	if err := w.update(); err != nil {
		return err
	}
	return w.read()
}

// scan visits the whole first file through the push-based scan from a cold
// client cache.
func (w *opWorker) scan() error {
	if err := w.s.Begin(); err != nil {
		return err
	}
	n := 0
	err := w.s.StreamScan(1, func(_ vmem.Addr, obj *swizzle.Object) error {
		n++
		_, err := obj.Bytes()
		return err
	})
	if aerr := w.s.Abort(); err == nil {
		err = aerr
	}
	if err == nil && n != w.sh.segs*w.sh.objs {
		err = fmt.Errorf("the scan saw %d objects, want %d", n, w.sh.segs*w.sh.objs)
	}
	if err != nil {
		return err
	}
	return w.s.DropAllCached()
}
