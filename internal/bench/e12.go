package bench

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"bess/internal/baseline"
	"bess/internal/goleak"
	"bess/internal/proto"
	"bess/internal/rpc"
)

// gobBody is the baseline's inner encode pass: the reply value gob'd into
// the frame body (which the frame encoder then gobs again).
func gobBody(v any) []byte {
	var buf bytes.Buffer
	must(gob.NewEncoder(&buf).Encode(v))
	return buf.Bytes()
}

// --- E12: wire protocol — binary framed + coalesced vs double-gob ---
//
// The experiment isolates the message layer over real TCP loopback: the
// same method mix runs over the pre-E12 gob protocol (internal/baseline's
// GobPeer: body gob'd into the frame, frame gob'd onto an unbuffered
// socket) and the binary framed protocol (internal/rpc: length-prefixed
// frames, pooled buffers, leader/follower write coalescing). Axes: small
// concurrent calls (Lock-shaped, where coalescing and cheap encoding
// matter most) and sequential segment fetches (FetchSeg-shaped, where the
// second encode pass on big payloads matters).

// E12Result is one small-call throughput measurement.
type E12Result struct {
	Mode             string         `json:"mode"` // "gob" or "binary"
	Concurrency      int            `json:"concurrency"`
	Calls            int            `json:"calls"`
	Seconds          float64        `json:"seconds"`
	SmallCallsPerSec float64        `json:"small_calls_per_sec"`
	NsPerCall        float64        `json:"ns_per_call"`
	WireFlushes      int64          `json:"wire_flushes,omitempty"`     // binary only
	CoalescedFrames  int64          `json:"coalesced_frames,omitempty"` // binary only
	Latency          LatencySummary `json:"latency"`                    // per call
}

// E12Fetch is one segment-fetch bandwidth measurement.
type E12Fetch struct {
	Mode         string  `json:"mode"`
	Fetches      int     `json:"fetches"`
	PayloadBytes int     `json:"payload_bytes"`
	Seconds      float64 `json:"seconds"`
	MBPerSec     float64 `json:"mb_per_sec"`
}

// E12Report is the full experiment output (BENCH_E12.json).
type E12Report struct {
	SmallCalls   []E12Result `json:"small_calls"`
	SegmentFetch []E12Fetch  `json:"segment_fetch"`
}

// e12Caller is the per-protocol surface the harness drives: a small
// Lock-shaped call and a big FetchSeg-shaped call, plus teardown.
type e12Caller struct {
	lock  func() error
	fetch func() (int, error) // returns payload length
	stats func() rpc.Stats
	close func()
}

var e12Seg = proto.SegKey{Area: 1, Start: 128}

// e12Binary serves the binary protocol on loopback TCP and returns a caller
// bound to one shared client connection (concurrent callers share the
// connection — that is where write coalescing pays).
func e12Binary(payload []byte) *e12Caller {
	l, err := rpc.Listen("127.0.0.1:0")
	must(err)
	var accept goleak.Group
	accept.Go("bench.e12Accept", func(<-chan struct{}) {
		for {
			p, err := l.Accept()
			if err != nil {
				return
			}
			p.Serve(map[string]rpc.Method{
				"Lock": rpc.Typed(func(*proto.LockArgs) (*proto.Empty, error) {
					return &proto.Empty{}, nil
				}),
				"FetchSeg": rpc.Typed(func(*proto.ClientSegArgs) (*proto.SegImage, error) {
					return &proto.SegImage{Seg: e12Seg, Data: payload}, nil
				}),
			})
		}
	})
	c, err := rpc.Dial(l.Addr())
	must(err)
	return &e12Caller{
		lock: func() error {
			return c.Call("Lock", &proto.LockArgs{Client: 1, Tx: 42, Seg: e12Seg, Mode: proto.LockX}, &proto.Empty{})
		},
		fetch: func() (int, error) {
			var img proto.SegImage
			err := c.Call("FetchSeg", &proto.ClientSegArgs{Client: 1, Seg: e12Seg}, &img)
			return len(img.Data), err
		},
		stats: c.WireStats,
		close: func() { c.Close(); l.Close(); accept.Stop() },
	}
}

// e12Gob serves the same mix over the baseline double-gob protocol.
func e12Gob(payload []byte) *e12Caller {
	l, err := baseline.GobListen("127.0.0.1:0")
	must(err)
	var accept goleak.Group
	accept.Go("bench.e12GobAccept", func(<-chan struct{}) {
		for {
			p, err := l.Accept()
			if err != nil {
				return
			}
			p.Handle("Lock", func(body []byte) ([]byte, error) {
				return gobBody(&proto.Empty{}), nil
			})
			p.Handle("FetchSeg", func(body []byte) ([]byte, error) {
				return gobBody(&proto.SegImage{Seg: e12Seg, Data: payload}), nil
			})
		}
	})
	c, err := baseline.GobDial(l.Addr())
	must(err)
	return &e12Caller{
		lock: func() error {
			return c.Call("Lock", &proto.LockArgs{Client: 1, Tx: 42, Seg: e12Seg, Mode: proto.LockX}, &proto.Empty{})
		},
		fetch: func() (int, error) {
			var img proto.SegImage
			if err := c.Call("FetchSeg", &proto.ClientSegArgs{Client: 1, Seg: e12Seg}, &img); err != nil {
				return 0, err
			}
			return len(img.Data), nil
		},
		stats: func() rpc.Stats { return rpc.Stats{} },
		close: func() { c.Close(); l.Close(); accept.Stop() },
	}
}

func e12Dial(mode string, payload []byte) *e12Caller {
	if mode == "gob" {
		return e12Gob(payload)
	}
	return e12Binary(payload)
}

// RunE12 measures small-call throughput for one (mode, concurrency) point:
// concurrency workers sharing one connection, each issuing callsPerWorker
// Lock-shaped calls.
func RunE12(mode string, concurrency, callsPerWorker int) E12Result {
	c := e12Dial(mode, nil)
	defer c.close()
	// Warm the path (gob type descriptors, pools, TCP window).
	for i := 0; i < 8; i++ {
		must(c.lock())
	}
	before := c.stats()
	var lat Hist
	start := time.Now()
	// Workers record their first failure and bail instead of panicking:
	// the join below always completes, and must() fires after it, so a
	// failed run never strands its siblings mid-call.
	errs := make([]error, concurrency)
	var workers goleak.Group
	for w := 0; w < concurrency; w++ {
		workers.Go("bench.e12Worker", func(<-chan struct{}) {
			for i := 0; i < callsPerWorker; i++ {
				t0 := time.Now()
				if err := c.lock(); err != nil {
					errs[w] = err
					return
				}
				lat.Observe(time.Since(t0))
			}
		})
	}
	workers.Stop()
	elapsed := time.Since(start)
	for _, err := range errs {
		must(err)
	}
	after := c.stats()
	calls := concurrency * callsPerWorker
	return E12Result{
		Mode:             mode,
		Concurrency:      concurrency,
		Calls:            calls,
		Seconds:          elapsed.Seconds(),
		SmallCallsPerSec: float64(calls) / elapsed.Seconds(),
		NsPerCall:        float64(elapsed.Nanoseconds()) / float64(calls),
		WireFlushes:      after.Flushes - before.Flushes,
		CoalescedFrames:  after.Coalesced - before.Coalesced,
		Latency:          lat.Summary(),
	}
}

// RunE12Fetch measures sequential segment-fetch bandwidth: fetches round
// trips each carrying payloadBytes of segment data back.
func RunE12Fetch(mode string, fetches, payloadBytes int) E12Fetch {
	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	c := e12Dial(mode, payload)
	defer c.close()
	if n, err := c.fetch(); err != nil || n != payloadBytes {
		panic(fmt.Sprintf("e12 fetch warmup: n=%d err=%v", n, err))
	}
	start := time.Now()
	for i := 0; i < fetches; i++ {
		n, err := c.fetch()
		must(err)
		if n != payloadBytes {
			panic("e12 short fetch")
		}
	}
	elapsed := time.Since(start)
	mb := float64(fetches) * float64(payloadBytes) / (1 << 20)
	return E12Fetch{
		Mode:         mode,
		Fetches:      fetches,
		PayloadBytes: payloadBytes,
		Seconds:      elapsed.Seconds(),
		MBPerSec:     mb / elapsed.Seconds(),
	}
}

// FormatE12 renders a small-call row.
func FormatE12(r E12Result) string {
	return fmt.Sprintf("%-7s conc=%-3d %9.0f calls/s %8.0f ns/call flushes=%-6d coalesced=%-6d %s",
		r.Mode, r.Concurrency, r.SmallCallsPerSec, r.NsPerCall, r.WireFlushes, r.CoalescedFrames, FormatLatency(r.Latency))
}

// FormatE12Fetch renders a fetch-bandwidth row.
func FormatE12Fetch(r E12Fetch) string {
	return fmt.Sprintf("%-7s payload=%dKB %8.1f MB/s", r.Mode, r.PayloadBytes>>10, r.MBPerSec)
}
