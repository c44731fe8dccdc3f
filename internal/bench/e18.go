package bench

import (
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"bess/internal/client"
	"bess/internal/core"
	"bess/internal/fault"
	"bess/internal/goleak"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/segment"
	"bess/internal/server"
	"bess/internal/swizzle"
	"bess/internal/vmem"
)

// --- E18: streaming scan — push-based pipeline vs per-segment fetch (§10) ---
//
// The experiment runs a file-backed server on loopback TCP and scans blob
// files cold from fresh sessions. The pull mode is the classic cursor: one
// SegInfo plus one FetchSeg round trip per segment, serializing server read,
// wire transfer, and client consumption. The stream mode opens a server-side
// cursor (ScanStart) that pushes coalesced segment-image batches ahead of
// the iterator under a byte-credit window, so the three stages overlap.
// Axes: cold full-file bandwidth, multi-file parallel streams, and a mixed
// workload with an updater committing against a second file mid-scan.

var e18BlobType = segment.TypeDesc{Name: "E18Blob", Size: 0}

// E18Env is one populated server reachable over loopback TCP.
type E18Env struct {
	dir    string
	srv    *server.Server
	lis    *rpc.Listener
	accept goleak.Group // the accept loop; Close stops it
	db     uint32       // database id
	Files  []uint32     // populated file ids
	Segs   int          // segments per file
	Objs   int          // objects per segment
	Blob   int          // payload bytes per object
}

// Close shuts the listener, server, and backing directory down, joining the
// accept loop so no goroutine outlives the environment.
func (e *E18Env) Close() {
	e.lis.Close()
	e.accept.Stop()
	must(e.srv.Close())
	os.RemoveAll(e.dir)
}

// NetDelay models the network between client and server. The paper's
// client/server measurements ran across a real LAN; loopback TCP on one
// host has neither propagation delay nor store-and-forward cost, so — like
// E9's DiskDelay — the bench injects it explicitly: every socket operation
// on the client's connection sleeps this long. Request/reply turnarounds
// pay it per round trip; bulk data pays it per buffer-sized read. The
// loopback rows record the undelayed floor next to the emulated-LAN rows.
const NetDelay = 250 * time.Microsecond

// dialConn opens the client-side net.Conn, wrapped in the emulated network
// when lan is set.
func (e *E18Env) dialConn(lan bool) *rpc.Peer {
	c, err := net.Dial("tcp", e.lis.Addr())
	must(err)
	if lan {
		return rpc.NewPeer(fault.WrapConn(c, fault.ConnPlan{ReadDelay: NetDelay, WriteDelay: NetDelay}))
	}
	return rpc.NewPeer(c)
}

// dial opens a fresh session over its own TCP connection and returns the
// remote for RPC accounting. A new session has an empty segment cache, so
// its first scan is cold by construction.
func (e *E18Env) dial(name string, lan bool) (*client.Session, *client.Remote) {
	r := client.NewRemote(e.dialConn(lan))
	s, err := client.Open(r, name, "e18", false)
	must(err)
	_, err = s.RegisterType(e18BlobType)
	must(err)
	return s, r
}

// SetupE18 opens a file-backed server, serves it on loopback TCP, and
// populates files of blob segments sized ~(1+objs*(blob+16)/4096) pages.
func SetupE18(files, segsPerFile, objsPerSeg, blobLen int) *E18Env {
	dir, err := os.MkdirTemp("", "bess-e18-")
	must(err)
	srv, err := server.Open(dir, 1)
	must(err)
	lis, err := rpc.Listen("127.0.0.1:0")
	must(err)
	env := &E18Env{dir: dir, srv: srv, lis: lis, Segs: segsPerFile, Objs: objsPerSeg, Blob: blobLen}
	env.accept.Go("bench.e18Accept", func(<-chan struct{}) {
		for {
			p, err := lis.Accept()
			if err != nil {
				return
			}
			server.ServePeer(srv, p)
		}
	})

	p, err := rpc.Dial(lis.Addr())
	must(err)
	s, err := client.Open(client.NewRemote(p), "e18-setup", "e18", true)
	must(err)
	env.db = s.DB()
	td, err := s.RegisterType(e18BlobType)
	must(err)
	payload := make([]byte, blobLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	dataPages := (objsPerSeg*(blobLen+16))/4096 + 2
	for f := 0; f < files; f++ {
		fileID := uint32(f + 1)
		env.Files = append(env.Files, fileID)
		for g := 0; g < segsPerFile; g++ {
			seg, err := s.CreateSegment(fileID, 1, dataPages, -1)
			must(err)
			must(s.Begin())
			for o := 0; o < objsPerSeg; o++ {
				_, err := s.CreateObject(seg, td.ID, payload)
				must(err)
			}
			must(s.Commit())
		}
	}
	// Settle: flush the dirty pages populate left behind, so the measured
	// scans read clean pages instead of paying eviction write-back, once the
	// last commit, which answered first, has written them.
	srv.WaitWriteBacks()
	must(srv.Checkpoint())
	return env
}

// E18Scan is one cold full-file scan measurement.
type E18Scan struct {
	Mode     string         `json:"mode"` // "pull" or "stream"
	Net      string         `json:"net"`  // "loopback" or "lan" (NetDelay emulated)
	Segments int            `json:"segments"`
	Objects  int            `json:"objects"`
	Bytes    int64          `json:"bytes"` // payload bytes visited
	Seconds  float64        `json:"seconds"`
	MBPerSec float64        `json:"mb_per_sec"`
	RPCCalls int64          `json:"rpc_calls"`
	Batches  int            `json:"batches,omitempty"` // stream only
	Service  LatencySummary `json:"service"`           // per segment (pull) / per batch (stream)
}

// warmServer touches every segment of fileID through the server's own
// fetch path (no wire, no client cache), so timed scans measure the scan
// protocol rather than the backing filesystem.
func (e *E18Env) warmServer(fileID uint32) {
	keys, err := e.srv.SegmentsOf(e.db, fileID)
	must(err)
	for _, k := range keys {
		_, _, _, err := e.srv.FetchSeg(0, k)
		must(err)
	}
}

// RunE18Scan scans fileID with a warm server and a cold client cache. Pull
// mode walks the cursor segment by segment (timing each segment's
// fetch+visit); stream mode uses the push pipeline (timing batch
// inter-arrivals). With lan, the connection pays NetDelay per socket
// operation. Two cold passes run back to back and the faster one is
// reported, shielding the row from background I/O spikes.
func RunE18Scan(env *E18Env, mode string, fileID uint32, lan bool) E18Scan {
	s, r := env.dial(fmt.Sprintf("e18-%s-%d", mode, fileID), lan)
	defer r.Close()
	env.warmServer(fileID)
	best := runE18ScanOnce(env, s, r, mode, fileID, lan)
	s.DropAllCached()
	if again := runE18ScanOnce(env, s, r, mode, fileID, lan); again.MBPerSec > best.MBPerSec {
		best = again
	}
	return best
}

func runE18ScanOnce(env *E18Env, s *client.Session, r *client.Remote, mode string, fileID uint32, lan bool) E18Scan {
	must(s.Begin())

	var (
		objects int
		bytes   int64
		service Hist
		batches int
	)
	visit := func(_ vmem.Addr, obj *swizzle.Object) error {
		b, err := obj.Bytes()
		if err != nil {
			return err
		}
		objects++
		bytes += int64(len(b))
		return nil
	}

	before := r.Calls()
	var elapsed time.Duration
	var segs int
	switch mode {
	case "pull":
		keys, err := s.Conn().SegmentsOf(s.DB(), fileID)
		must(err)
		segs = len(keys)
		start := time.Now()
		for _, k := range keys {
			t0 := time.Now()
			must(s.ScanSegment(k, visit))
			service.Observe(time.Since(t0))
		}
		elapsed = time.Since(start)
	case "stream":
		var last time.Time
		s.SetScanBatchHook(func(images, bytes int) {
			now := time.Now()
			service.Observe(now.Sub(last))
			last = now
			batches++
		})
		segs = env.Segs
		start := time.Now()
		last = start
		must(s.StreamScan(fileID, visit))
		elapsed = time.Since(start)
	default:
		panic("e18: unknown mode " + mode)
	}
	must(s.Commit())

	netw := "loopback"
	if lan {
		netw = "lan"
	}
	return E18Scan{
		Mode:     mode,
		Net:      netw,
		Segments: segs,
		Objects:  objects,
		Bytes:    bytes,
		Seconds:  elapsed.Seconds(),
		MBPerSec: float64(bytes) / (1 << 20) / elapsed.Seconds(),
		RPCCalls: r.Calls() - before,
		Batches:  batches,
		Service:  service.Summary(),
	}
}

// E18Parallel is the multi-file row: one push pipeline per file, all
// streaming concurrently over their own connections (§10).
type E18Parallel struct {
	Files    int     `json:"files"`
	Bytes    int64   `json:"bytes"`
	Seconds  float64 `json:"seconds"`
	MBPerSec float64 `json:"mb_per_sec"`
}

// RunE18Parallel streams every populated file at once via StreamScanFiles.
func RunE18Parallel(env *E18Env, lan bool) E18Parallel {
	for _, f := range env.Files {
		env.warmServer(f)
	}
	var bytes atomic.Int64
	start := time.Now()
	err := core.StreamScanFiles(func(i int) (proto.Conn, error) {
		return client.NewRemote(env.dialConn(lan)), nil
	}, "e18", env.Files, func(_ uint32, _ segment.TypeID, data []byte) error {
		bytes.Add(int64(len(data)))
		return nil
	})
	must(err)
	elapsed := time.Since(start)
	return E18Parallel{
		Files:    len(env.Files),
		Bytes:    bytes.Load(),
		Seconds:  elapsed.Seconds(),
		MBPerSec: float64(bytes.Load()) / (1 << 20) / elapsed.Seconds(),
	}
}

// E18Mixed is a scan measured while an updater commits against another file.
type E18Mixed struct {
	Scan          E18Scan        `json:"scan"`
	UpdateCommits int            `json:"update_commits"`
	UpdatesPerSec float64        `json:"updates_per_sec"`
	UpdateLatency LatencySummary `json:"update_latency"`
}

// RunE18Mixed scans scanFile in the given mode while a second session runs
// create/delete update transactions against updFile until the scan ends. The
// scan starts once the updater's first pair of transactions has committed.
// Only the scanning connection pays the emulated network; the updater
// models a co-located writer.
func RunE18Mixed(env *E18Env, mode string, scanFile, updFile uint32, lan bool) E18Mixed {
	env.warmServer(updFile)
	u, ur := env.dial(fmt.Sprintf("e18-upd-%d", updFile), false)
	defer ur.Close()
	segs, err := u.Conn().SegmentsOf(u.DB(), updFile)
	must(err)
	td, err := u.RegisterType(e18BlobType)
	must(err)

	var lat Hist
	var commits int
	var updater goleak.Group
	committed := make(chan struct{})
	// Joined on every exit path: a scan that panics mid-run must not strand
	// the updater against a server the deferred Closes are tearing down.
	defer updater.Stop()
	updater.Go("bench.e18Updater", func(stop <-chan struct{}) {
		payload := make([]byte, 128)
		for {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			must(u.Begin())
			addr, err := u.CreateObject(segs[commits%len(segs)], td.ID, payload)
			must(err)
			must(u.Commit())
			lat.Observe(time.Since(t0))
			t0 = time.Now()
			must(u.Begin())
			must(u.DeleteObject(addr))
			must(u.Commit())
			lat.Observe(time.Since(t0))
			if commits += 2; commits == 2 {
				close(committed)
			}
		}
	})

	<-committed
	scan := RunE18Scan(env, mode, scanFile, lan)
	updater.Stop()
	return E18Mixed{
		Scan:          scan,
		UpdateCommits: commits,
		UpdatesPerSec: float64(commits) / scan.Seconds,
		UpdateLatency: lat.Summary(),
	}
}

// E18Report is the full experiment output (BENCH_E18.json). The headline
// Speedup compares the emulated-LAN rows — the configuration the streaming
// pipeline exists for; the loopback rows record the zero-latency floor.
type E18Report struct {
	SegmentBytes    int         `json:"segment_bytes"` // ~bytes per segment image
	NetDelayUs      float64     `json:"net_delay_us"`  // emulated per-op network delay
	PullLoopback    E18Scan     `json:"pull_loopback"`
	StreamLoopback  E18Scan     `json:"stream_loopback"`
	SpeedupLoopback float64     `json:"speedup_loopback"`
	Pull            E18Scan     `json:"pull"`    // emulated LAN
	Stream          E18Scan     `json:"stream"`  // emulated LAN
	Speedup         float64     `json:"speedup"` // stream MB/s over pull MB/s (LAN)
	Parallel        E18Parallel `json:"parallel"`
	MixedPull       E18Mixed    `json:"mixed_pull"`
	MixedStream     E18Mixed    `json:"mixed_stream"`
}

// RunE18 runs the whole experiment against one populated environment. The
// cold rows scan Files[0]; the mixed rows scan Files[0] while updating the
// last file.
func RunE18(env *E18Env) E18Report {
	rep := E18Report{
		SegmentBytes: ((env.Objs*(env.Blob+16))/4096 + 3) * 4096,
		NetDelayUs:   float64(NetDelay) / 1e3,
	}
	rep.PullLoopback = RunE18Scan(env, "pull", env.Files[0], false)
	rep.StreamLoopback = RunE18Scan(env, "stream", env.Files[0], false)
	rep.SpeedupLoopback = rep.StreamLoopback.MBPerSec / rep.PullLoopback.MBPerSec
	rep.Pull = RunE18Scan(env, "pull", env.Files[0], true)
	rep.Stream = RunE18Scan(env, "stream", env.Files[0], true)
	rep.Speedup = rep.Stream.MBPerSec / rep.Pull.MBPerSec
	rep.Parallel = RunE18Parallel(env, true)
	upd := env.Files[len(env.Files)-1]
	rep.MixedPull = RunE18Mixed(env, "pull", env.Files[0], upd, true)
	rep.MixedStream = RunE18Mixed(env, "stream", env.Files[0], upd, true)
	return rep
}

// FormatE18Scan renders one scan row.
func FormatE18Scan(r E18Scan) string {
	extra := ""
	if r.Mode == "stream" {
		extra = fmt.Sprintf(" batches=%d", r.Batches)
	}
	return fmt.Sprintf("%-7s %-9s segs=%-4d %8.1f MB/s  rpcs=%-5d %s%s",
		r.Mode, r.Net, r.Segments, r.MBPerSec, r.RPCCalls, FormatLatency(r.Service), extra)
}
