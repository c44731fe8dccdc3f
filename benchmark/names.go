package main

// The names in this file are the benchmark's contract: BENCHMARK.json lists
// exactly these workloads and metrics (smoke_test.go holds the two equal), and
// later changes are accepted or rejected against them.

// Run constants. They are constants of the benchmark, the same on every
// commit; -seconds exists only because the pipeline passes run_seconds back.
const (
	clients        = 2  // client sessions / TCP connections at most (nproc on the reference box)
	defaultSeconds = 18 // run_seconds in BENCHMARK.json: the timed window
	defaultSeed    = 1
	setupReps      = 3 // set-ups per run; setup_s is their median

	// A run of s seconds warms the workload up for warmupFrac*s, then
	// measures it for s (the issue's 5 s + 20 s, shrunk equally for all four
	// workloads to fit the pipeline's cap on total run time). A workload that
	// never commits then commits for logFrac*s, so that log_bytes_per_commit
	// is defined on it too.
	warmupFrac = 0.25
	logFrac    = 0.05

	checkpointsPerWindow = 4 // srv.Checkpoint() cadence = window / 4
	flushPolicy          = "product default: one fsync per group-commit round"

	minFreeBytes = 4 << 30 // the log never truncates; refuse to start below this
)

type workloadDef struct{ Name, Why string }

var workloadDefs = []workloadDef{
	{"commit", "private files, warm client cache: WAL append + group-commit sync, small RPC frames, server commit path and lock manager do the work; area reads and scans do none"},
	{"fetch_cold", "every touch is a client-cache miss: FetchSeg RPC, area read, CRC verify, proto decode and swizzle are the whole op; the WAL does nothing"},
	{"scan_stream", "bulk bandwidth of 512 KB segments through server sender, stream frames and client prefetcher; per-call rpc, lock and WAL cost is negligible"},
	{"mixed", "zipf snapshot reads beside 2PL updates on one file: a read gain paid for by commits (or the reverse) shows as read_* and commit_* moving apart"},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // share of the parent's median by which it may worsen; 0 for per-layer metrics
}

// bound is the issue's regression bound for every end-to-end metric.
const bound = 0.10

// End-to-end metrics the pipeline gates: BENCHMARK.json's end_to_end.
// Measured with tracing off. The pipeline has every workload print every
// gated metric, and accepts a metric only if ten runs of each workload agree
// within its bound, so a metric is listed here only if it means something on
// all four workloads and its run-to-run spread stays well inside 0.10 on each
// (README.md, "A/A"). setup_s is the pipeline's own metric; its contract says
// to give it the largest bound, and it is one catalog fsync per segment.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"log_bytes_per_commit", "B", "lower", bound},
}

// End-to-end metrics every untraced run measures, prints and writes to its
// result file, and -compare judges against the same 0.10, but the pipeline
// does not gate. The timing rows are printed by the workloads they apply to
// only (the pipeline wants every workload to print every gated metric), and
// the ones that wait for the log device do not repeat within a tenth on a
// shared box; the resident set of a 17 MB Go process does not either. The A/A
// evidence for each is in README.md.
var reported = []metricDef{
	{"commit_per_s", "1/s", "higher", bound}, // commit, mixed
	{"commit_p50_us", "us", "lower", bound},  // commit, mixed
	{"commit_p95_us", "us", "lower", bound},  // commit, mixed
	{"read_per_s", "1/s", "higher", bound},   // fetch_cold, mixed
	{"read_p50_us", "us", "lower", bound},    // fetch_cold, mixed
	{"read_p95_us", "us", "lower", bound},    // fetch_cold, mixed
	{"scan_MBps", "MB/s", "higher", bound},   // scan_stream
	{"peak_rss_MB", "MB", "lower", bound},    // all
}

// Per-layer metrics, collected in the traced run. A metric that does not
// apply to a workload reads 0 there.
var perLayer = []metricDef{
	// client: the reported end-to-end rows as the traced run saw them, so the
	// pipeline's per-layer report carries them by name; then spans around
	// Session calls and Session/Remote counters
	{"client.commit_per_s", "1/s", "higher", 0},
	{"client.commit_p50_us", "us", "lower", 0},
	{"client.commit_p95_us", "us", "lower", 0},
	{"client.read_per_s", "1/s", "higher", 0},
	{"client.read_p50_us", "us", "lower", 0},
	{"client.read_p95_us", "us", "lower", 0},
	{"client.scan_MBps", "MB/s", "higher", 0},
	{"client.commit_self_us", "us", "lower", 0},
	{"client.read_self_us", "us", "lower", 0},
	{"client.hit_rate", "ratio", "higher", 0},
	{"client.rpcs_per_op", "count", "lower", 0},
	{"client.segs_shipped_per_commit", "count", "lower", 0},
	{"client.drops", "count", "lower", 0},
	{"client.refusals", "count", "lower", 0},
	{"client.commit_p99_us", "us", "lower", 0},
	{"client.read_p99_us", "us", "lower", 0},
	{"client.commit_pmax10_us", "us", "lower", 0},
	{"client.commit_pmax10_n", "count", "higher", 0},
	{"client.read_pmax10_us", "us", "lower", 0},
	{"client.read_pmax10_n", "count", "higher", 0},
	{"client.scan_pull_MBps", "MB/s", "higher", 0},
	{"client.scan_first_obj_ms", "ms", "lower", 0},
	// rpc: net.Conn wrapper under the client peer, Peer.WireStats, echo probe
	{"rpc.turnaround_p50_us", "us", "lower", 0},
	{"rpc.bytes_per_op", "B", "lower", 0},
	{"rpc.frames_per_op", "count", "lower", 0},
	{"rpc.flushes_per_op", "count", "lower", 0},
	{"rpc.coalesced_frac", "ratio", "higher", 0},
	{"rpc.echo_rtt_us", "us", "lower", 0},
	{"rpc.echo_MBps", "MB/s", "higher", 0},
	{"rpc.stream_batches_per_pass", "count", "lower", 0},
	{"rpc.stream_batch_gap_p95_us", "us", "lower", 0},
	// proto: single-caller probes on the workload's own images
	{"proto.commit_encode_ns", "ns", "lower", 0},
	{"proto.commit_decode_ns", "ns", "lower", 0},
	{"proto.segimage_encode_ns", "ns", "lower", 0},
	{"proto.segimage_decode_ns", "ns", "lower", 0},
	{"proto.scanbatch_decode_ns", "ns", "lower", 0},
	{"proto.allocs_per_op", "count", "lower", 0},
	// server: direct replay against *server.Server, counters, checkpoint spans
	{"server.commit_us", "us", "lower", 0},
	{"server.commit_self_us", "us", "lower", 0},
	{"server.fetchseg_us", "us", "lower", 0},
	{"server.fetchseg_self_us", "us", "lower", 0},
	{"server.snapfetch_us", "us", "lower", 0},
	{"server.snapfetch_self_us", "us", "lower", 0},
	{"server.messages_per_op", "count", "lower", 0},
	{"server.pages_written_per_commit", "count", "lower", 0},
	{"server.callbacks_per_commit", "count", "lower", 0},
	{"server.checkpoint_ms", "ms", "lower", 0},
	{"server.checkpoint_stall_us", "us", "lower", 0},
	{"server.reopen_s", "s", "lower", 0},
	// lock: LockStats deltas, lock.Manager probe
	{"lock.acquires_per_op", "count", "lower", 0},
	{"lock.reader_acquires_per_op", "count", "lower", 0},
	{"lock.blocks", "count", "lower", 0},
	{"lock.timeouts", "count", "lower", 0},
	{"lock.acquire_release_ns", "ns", "lower", 0},
	// wal: Stats deltas, probes on a file-backed log in the bench dir
	{"wal.syncs_per_commit", "ratio", "lower", 0},
	{"wal.grouped_frac", "ratio", "higher", 0},
	{"wal.bytes_per_commit", "B", "lower", 0},
	{"wal.append_ns", "ns", "lower", 0},
	{"wal.append_flush_us", "us", "lower", 0},
	{"wal.reopen_ms_per_MB", "ms/MB", "lower", 0},
	{"wal.verify_MBps", "MB/s", "higher", 0},
	// segment: probes on the workload's own images
	{"segment.decode_us", "us", "lower", 0},
	{"segment.verify_us", "us", "lower", 0},
	{"segment.verify_GBps", "GB/s", "higher", 0},
	{"segment.encode_us", "us", "lower", 0},
	// area: timing wrapper over the area files
	{"area.read_page_us", "us", "lower", 0},
	{"area.reads_per_read_op", "count", "lower", 0},
	{"area.read_bytes_per_op", "B", "lower", 0},
	{"area.write_bytes_per_commit", "B", "lower", 0},
	// device: timing wrappers over the WAL and area files
	{"device.wal_sync_p50_us", "us", "lower", 0},
	{"device.wal_sync_busy_frac", "ratio", "lower", 0},
	{"device.wal_write_bytes_per_commit", "B", "lower", 0},
	{"device.area_syncs", "count", "lower", 0},
	{"device.area_sync_ms", "ms", "lower", 0},
	// cache: version store counters
	{"cache.chain_hits_per_read", "count", "higher", 0},
	{"cache.wal_rebuilds_per_read", "count", "lower", 0},
	{"cache.versions_live_max", "count", "lower", 0},
	{"cache.captures_per_commit", "count", "lower", 0},
	{"cache.unpinned_rebuilds_per_read", "count", "lower", 0},
	{"cache.unpinned_rebuild_ms", "ms", "lower", 0},
	// floors: measured in-process in the bench dir before the workload
	{"floor.fsync_p50_us", "us", "lower", 0},
	{"floor.loopback_rtt_us", "us", "lower", 0},
	{"floor.loopback_MBps", "MB/s", "higher", 0},
	{"floor.crc32c_GBps", "GB/s", "higher", 0},
	{"floor.memmove_GBps", "GB/s", "higher", 0},
	// honesty rows: what the outside-in view cannot explain
	{"budget.commit_unattributed_frac", "ratio", "lower", 0},
	{"budget.read_unattributed_frac", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// findMetric looks an end-to-end metric up, gated or reported.
func findMetric(name string) (metricDef, bool) {
	for _, m := range append(append([]metricDef{}, endToEnd...), reported...) {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}
