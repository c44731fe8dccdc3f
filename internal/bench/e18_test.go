package bench

import "testing"

// TestE18Smoke runs a miniature E18 end to end — tiny segments, both scan
// modes, the parallel row, and one mixed round. It asserts structure, not
// speed (the committed BENCH_E18.json records the full-size margins), and
// is cheap enough to run under -short as the CI smoke.
func TestE18Smoke(t *testing.T) {
	env := SetupE18(2, 4, 10, 2048)
	defer env.Close()
	wantObjs := env.Segs * env.Objs
	wantBytes := int64(wantObjs * env.Blob)

	pull := RunE18Scan(env, "pull", env.Files[0], false)
	stream := RunE18Scan(env, "stream", env.Files[0], false)
	t.Logf("pull:   %s", FormatE18Scan(pull))
	t.Logf("stream: %s", FormatE18Scan(stream))
	for _, r := range []E18Scan{pull, stream} {
		if r.Objects != wantObjs || r.Bytes != wantBytes {
			t.Fatalf("%s scan visited %d objects / %d bytes, want %d / %d",
				r.Mode, r.Objects, r.Bytes, wantObjs, wantBytes)
		}
		if r.Segments != env.Segs {
			t.Fatalf("%s scan saw %d segments, want %d", r.Mode, r.Segments, env.Segs)
		}
	}
	// The pull cursor pays per-segment round trips; the stream pays one
	// ScanStart plus pushed data. Cold pull needs a FetchSeg per segment (and,
	// the first time a session sees a segment, a SegInfo: the reported pass may
	// be the second, which remembers the sizes); streaming must stay under that.
	if pull.RPCCalls < int64(env.Segs) {
		t.Fatalf("pull used %d calls, expected >= %d", pull.RPCCalls, env.Segs)
	}
	if stream.RPCCalls >= int64(env.Segs) {
		t.Fatalf("stream used %d calls for %d segments — push path not engaged", stream.RPCCalls, env.Segs)
	}
	if stream.Batches <= 0 {
		t.Fatal("stream reported no batches")
	}

	par := RunE18Parallel(env, false)
	if par.Bytes != wantBytes*int64(len(env.Files)) {
		t.Fatalf("parallel scan covered %d bytes, want %d", par.Bytes, wantBytes*int64(len(env.Files)))
	}

	mixed := RunE18Mixed(env, "stream", env.Files[0], env.Files[1], false)
	if mixed.Scan.Objects != wantObjs {
		t.Fatalf("mixed scan visited %d objects, want %d", mixed.Scan.Objects, wantObjs)
	}
	if mixed.UpdateCommits <= 0 {
		t.Fatal("updater made no commits during the mixed scan")
	}
	if mixed.UpdateLatency.Count == 0 {
		t.Fatal("mixed update latency histogram is empty")
	}
}
