package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bess/internal/area"
	"bess/internal/client"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/segment"
	"bess/internal/server"
)

const dbName = "bench"

var blobType = segment.TypeDesc{Name: "BenchBlob", Size: 0}

// shape is one workload's data set and transaction form.
type shape struct {
	files     int  // files: one per session when > 1 (private), else one shared
	segs      int  // segments per file
	dataPages int  // data pages per segment (beside 1 slotted page)
	objs      int  // objects per segment
	size      int  // payload bytes per object
	group     int  // objects per transaction, each in a distinct segment
	zipf      bool // key draw: zipf s=1.1 instead of uniform
	sessions  int  // client sessions (TCP connections)
	snapRead  bool // reads are snapshot transactions; else 2PL reads, made cold by dropping the copies after each

	work []assign // who does what in the timed window
}

// class is an operation class; every reported latency/throughput metric
// belongs to one.
type class int

const (
	clsUpdate class = iota // Begin, Deref+check+overwrite one object per group member, Commit
	clsRead                // Begin[Snapshot], Deref+Bytes+check per group member, Abort/EndSnapshot
	clsScan                // Begin, cold StreamScan of one file, Abort
	nClasses
)

var classNames = [nClasses]string{"commit", "read", "scan"}

// assign puts one session to work on one class for a phase.
type assign struct {
	sess int
	cls  class
}

func shapeOf(workload string, segDiv int) (shape, error) {
	both := func(c class) []assign { return []assign{{0, c}, {1, c}} }
	var sh shape
	switch workload {
	case "commit":
		sh = shape{files: 2, segs: 64, dataPages: 1, objs: 16, size: 128, group: 1, sessions: 2, work: both(clsUpdate)}
	case "fetch_cold":
		sh = shape{files: 1, segs: 512, dataPages: 3, objs: 24, size: 400, group: 4, sessions: 2, work: both(clsRead)}
	case "scan_stream":
		// The E18 shape: 124 x 4 KB objects, 1 slotted + 126 data pages.
		sh = shape{files: 1, segs: 96, dataPages: 126, objs: 124, size: 4096, group: 1, sessions: 1, work: []assign{{0, clsScan}}}
	case "mixed":
		sh = shape{files: 1, segs: 256, dataPages: 1, objs: 16, size: 256, group: 2, zipf: true, sessions: 2, snapRead: true,
			work: []assign{{0, clsUpdate}, {1, clsRead}}}
	default:
		return shape{}, fmt.Errorf("unknown workload %q", workload)
	}
	// segDiv shrinks the data set for the smoke test; group members stay in
	// distinct segments.
	if sh.segs /= segDiv; sh.segs < 2*sh.group {
		sh.segs = 2 * sh.group
	}
	return sh, nil
}

// sess is one client session with the handles the harness reads counters from.
type sess struct {
	s    *client.Session
	r    *client.Remote
	peer *rpc.Peer
	conn *tracedConn // nil in untraced runs
}

// env is one system under test, wired as cmd/bess-server wires it:
// a file-backed server behind rpc.Listen + server.ServePeer on loopback TCP.
type env struct {
	sh   shape
	dir  string // this env's own directory; removed by close
	srv  *server.Server
	lis  *rpc.Listener
	rec  *recorder        // nil in untraced runs
	dev  *devStats        // nil in untraced runs
	segs [][]proto.SegKey // [file][segment]

	// model[file][seg*objs+slot] is the counter the object's last acked
	// update wrote (0 = as populated). Writers own disjoint entries.
	model [][]uint64

	acceptDone chan struct{}
	peerMu     sync.Mutex
	srvPeers   []*rpc.Peer // guarded by peerMu
	sessions   []*sess

	workers []*worker
}

// openServer opens the file-backed server. Traced runs go through
// server.OpenMedia with timing wrappers over the same real files, so device
// time is visible from outside; the catalog then lives in memory only.
func (e *env) openServer() error {
	if e.rec == nil {
		srv, err := server.Open(e.dir, 1)
		e.srv = srv
		return err
	}
	e.dev = &devStats{rec: e.rec}
	open := func(name string, wal bool) (*timedFile, error) {
		f, err := os.OpenFile(filepath.Join(e.dir, name), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		return &timedFile{f: f, st: e.dev, wal: wal}, nil
	}
	logf, err := open("wal.log", true)
	if err != nil {
		return err
	}
	srv, err := server.OpenMedia(server.Media{
		Log: walFile{logf},
		NewArea: func(id uint32) (area.Store, error) {
			f, err := open(fmt.Sprintf("area-%d.bess", id), false)
			if err != nil {
				return nil, err
			}
			return areaFile{f}, nil
		},
	}, 1)
	if err != nil {
		logf.Close()
		return err
	}
	e.srv = srv
	return nil
}

func (e *env) listen() error {
	lis, err := rpc.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	e.lis = lis
	e.acceptDone = make(chan struct{})
	go func() {
		defer close(e.acceptDone)
		for {
			p, err := lis.Accept()
			if err != nil {
				return // listener closed by env.close
			}
			server.ServePeer(e.srv, p)
			e.peerMu.Lock()
			e.srvPeers = append(e.srvPeers, p)
			e.peerMu.Unlock()
		}
	}()
	return nil
}

// dial opens one session over its own loopback TCP connection. rpc.Listener's
// Accept starts the peer's read loop before server.ServePeer registers the
// handlers (cmd/bess-server has the same order), so a client whose Hello
// arrives in between is told "no handler for method" — once in about 450
// connections on two Ps (README.md, "Findings"). Connecting is not what the
// workloads measure, so a refused connection is made again, as an application
// would.
func (e *env) dial(name string, create bool) (ss *sess, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		if ss, err = e.dialOnce(name, create); err == nil {
			return ss, nil
		}
	}
	return nil, err
}

func (e *env) dialOnce(name string, create bool) (*sess, error) {
	c, err := net.Dial("tcp", e.lis.Addr())
	if err != nil {
		return nil, err
	}
	ss := &sess{}
	if e.rec != nil {
		ss.conn = &tracedConn{Conn: c, rec: e.rec}
		ss.peer = rpc.NewPeer(ss.conn)
	} else {
		ss.peer = rpc.NewPeer(c)
	}
	ss.r = client.NewRemote(ss.peer)
	ss.s, err = client.Open(ss.r, name, dbName, create)
	if err != nil {
		ss.r.Close()
		return nil, err
	}
	if _, err := ss.s.RegisterType(blobType); err != nil {
		ss.r.Close()
		return nil, err
	}
	return ss, nil
}

// setupEnv builds a populated, checkpointed system with its sessions dialled.
// Its duration is what setup_s reports.
func setupEnv(sh shape, parent string, rec *recorder, seed int64) (*env, error) {
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{sh: sh, dir: dir, rec: rec}
	if err := e.build(seed); err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

func (e *env) build(seed int64) error {
	if err := e.openServer(); err != nil {
		return err
	}
	if err := e.listen(); err != nil {
		return err
	}
	if err := e.populate(); err != nil {
		return err
	}
	for i := 0; i < e.sh.sessions; i++ {
		ss, err := e.dial(fmt.Sprintf("bench-%d", i), false)
		if err != nil {
			return fmt.Errorf("dial session %d: %w", i, err)
		}
		e.sessions = append(e.sessions, ss)
		e.workers = append(e.workers, newWorker(e, i, ss.s, ss, seed))
	}
	return nil
}

// populate creates the files through a client session over the wire, as an
// application would, then checkpoints so the measured phases start settled.
func (e *env) populate() error {
	ss, err := e.dial("bench-setup", true)
	if err != nil {
		return err
	}
	defer ss.r.Close()
	s := ss.s
	td := s.Types().LookupName(blobType.Name)
	if td == nil {
		return errors.New("setup: blob type not registered")
	}
	sh := e.sh
	buf := make([]byte, sh.size)
	for f := 0; f < sh.files; f++ {
		fid := fileID(f)
		keys := make([]proto.SegKey, 0, sh.segs)
		// One transaction per 16 segments: set-up pays one commit fsync per
		// batch instead of per segment (the catalog still syncs per segment).
		const batch = 16
		for g := 0; g < sh.segs; g++ {
			seg, err := s.CreateSegment(fid, 1, sh.dataPages, -1)
			if err != nil {
				return fmt.Errorf("setup: create segment: %w", err)
			}
			if g%batch == 0 {
				if err := s.Begin(); err != nil {
					return err
				}
			}
			for o := 0; o < sh.objs; o++ {
				fillPayload(buf, objectID(f, g*sh.objs+o), 0)
				addr, err := s.CreateObject(seg, td.ID, buf)
				if err != nil {
					return fmt.Errorf("setup: create object: %w", err)
				}
				// The workloads address objects as (segment, slot = creation index).
				if obj, err := s.Deref(addr); err != nil || obj.Slot != o {
					return fmt.Errorf("setup: object %d of segment %d landed in slot %v (%v)", o, g, obj, err)
				}
			}
			keys = append(keys, seg)
			if g%batch == batch-1 || g == sh.segs-1 {
				if err := s.Commit(); err != nil {
					return fmt.Errorf("setup: commit: %w", err)
				}
				// Keep the setup session's cache from holding the whole data set.
				s.DropAllCached()
			}
		}
		e.segs = append(e.segs, keys)
		e.model = append(e.model, make([]uint64, sh.segs*sh.objs))
	}
	return e.srv.Checkpoint()
}

func objectID(file, idx int) uint64 { return uint64(file)<<32 | uint64(idx) }

// fileID is the product file id of the benchmark's file-th file (0 is reserved).
func fileID(file int) uint32 { return uint32(file + 1) }

// stopServing closes the sessions, the listener (joining the accept loop),
// every server-side peer and the server, so nothing the harness started
// outlives it.
func (e *env) stopServing() error {
	var errs []error
	for _, ss := range e.sessions {
		if err := ss.r.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
	}
	e.sessions = nil
	if e.lis != nil {
		e.lis.Close()
		<-e.acceptDone
		e.lis = nil
	}
	e.peerMu.Lock()
	peers := e.srvPeers
	e.srvPeers = nil
	e.peerMu.Unlock()
	for _, p := range peers {
		p.Close()
	}
	if e.srv != nil {
		if err := e.srv.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close server: %w", err))
		}
		e.srv = nil
	}
	return errors.Join(errs...)
}

// close tears the system down and removes its directory.
func (e *env) close() error {
	return errors.Join(e.stopServing(), os.RemoveAll(e.dir))
}

// reopenVerify closes the server, reopens it from its directory with
// server.Open (ARIES restart runs), and has a fresh session read back every
// object: each must carry the counter of its last acked update. It returns
// the reopen time and the objects checked and wrong.
func (e *env) reopenVerify() (reopen time.Duration, checked, wrong int, err error) {
	// Restart begins its analysis at the last checkpoint. At this commit a
	// checkpoint that overlaps a committing transaction can list it as active
	// although its commit record precedes the checkpoint record, and restart
	// then undoes an acked commit (README.md, "Findings"). The checkpoints in
	// the measured windows run unserialised, as bess-server's ticker runs
	// them; this last one is taken with every worker joined, so what the
	// restart check decides is whether acked commits survive, not that race.
	if err := e.srv.Checkpoint(); err != nil {
		return 0, 0, 0, fmt.Errorf("final checkpoint: %w", err)
	}
	if err := e.stopServing(); err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	srv, err := server.Open(e.dir, 1)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("reopen: %w", err)
	}
	reopen = time.Since(t0)
	e.srv = srv
	s, err := client.Open(srv, "bench-verify", dbName, false)
	if err != nil {
		return reopen, 0, 0, fmt.Errorf("reopen: open session: %w", err)
	}
	if err := s.Begin(); err != nil {
		return reopen, 0, 0, err
	}
	sh := e.sh
	for f := range e.segs {
		for g, key := range e.segs[f] {
			for o := 0; o < sh.objs; o++ {
				checked++
				idx := g*sh.objs + o
				if !readBackOK(s, key, o, objectID(f, idx), e.model[f][idx]) {
					wrong++
				}
			}
			if g%64 == 63 { // bound the verifying session's cache
				if err := s.Commit(); err != nil {
					return reopen, checked, wrong, err
				}
				s.DropAllCached()
				if err := s.Begin(); err != nil {
					return reopen, checked, wrong, err
				}
			}
		}
	}
	return reopen, checked, wrong, s.Commit()
}

func readBackOK(s *client.Session, key proto.SegKey, slot int, id, want uint64) bool {
	addr, err := s.AddrOfSlot(key, slot)
	if err != nil {
		return false
	}
	obj, err := s.Deref(addr)
	if err != nil {
		return false
	}
	b, err := obj.Bytes()
	if err != nil {
		return false
	}
	gotID, counter, ok := checkPayload(b)
	return ok && gotID == id && counter == want
}
