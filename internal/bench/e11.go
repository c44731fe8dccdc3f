package bench

import (
	"fmt"
	"os"
	"time"

	"bess/internal/goleak"
	"bess/internal/proto"
	"bess/internal/segment"
	"bess/internal/server"
)

// --- E11: commit throughput vs client concurrency (group commit) ---

// E11Result reports commit throughput for one client count against a
// file-backed (really fsyncing) server.
type E11Result struct {
	Clients        int            `json:"clients"`
	Commits        int            `json:"commits"`
	Seconds        float64        `json:"seconds"`
	CommitsPerSec  float64        `json:"commits_per_sec"`
	WALSyncs       int64          `json:"wal_syncs"`
	GroupedCommits int64          `json:"grouped_commits"`
	SyncsPerCommit float64        `json:"syncs_per_commit"`
	Latency        LatencySummary `json:"latency"` // per update transaction
}

// RunE11 opens a file-backed server (commits pay a real fsync), gives each
// client its own segment plus two prebuilt commit images with equal-length
// alternating payloads (so every commit logs real page changes), and runs
// clients goroutines each committing commitsPerClient update transactions.
// With group commit, concurrent committers share fsync rounds, so
// SyncsPerCommit should fall well below 1 as Clients grows.
func RunE11(clients, commitsPerClient int) E11Result {
	return runE11(clients, commitsPerClient, 0)
}

func runE11(clients, commitsPerClient int, scrubEvery time.Duration) E11Result {
	dir, err := os.MkdirTemp("", "bess-e11-")
	must(err)
	defer os.RemoveAll(dir)
	srv, err := server.Open(dir, 1)
	must(err)
	defer func() { must(srv.Close()) }()
	db, _, err := srv.OpenDB("e11", true)
	must(err)
	if scrubEvery > 0 {
		srv.StartScrub(scrubEvery)
	}

	keys := make([]proto.SegKey, clients)
	imgs := make([][2]proto.SegImage, clients)
	conns := make([]uint32, clients)
	for c := 0; c < clients; c++ {
		fid, err := srv.NewFileID(db)
		must(err)
		created, err := srv.CreateSegment(0, 0, db, fid, 1, 2, -1)
		must(err)
		keys[c] = created.Seg
		for v := 0; v < 2; v++ {
			sl, ov, data, err := srv.FetchSeg(0, keys[c])
			must(err)
			seg, err := segment.DecodeSlotted(sl)
			must(err)
			seg.Overflow, seg.Data = ov, data
			_, err = seg.CreateObject(0, []byte(fmt.Sprintf("e11-client-%03d-v%d", c, v)))
			must(err)
			imgs[c][v] = proto.SegImage{Seg: keys[c], Slotted: seg.EncodeSlotted(), Overflow: seg.Overflow, Data: seg.Data}
		}
		conns[c], err = srv.Hello(fmt.Sprintf("e11-%d", c))
		must(err)
	}

	before := srv.Snapshot()
	var lat Hist
	start := time.Now()
	var workers goleak.Group
	for c := 0; c < clients; c++ {
		workers.Go("bench.e11Worker", func(<-chan struct{}) {
			for i := 0; i < commitsPerClient; i++ {
				t0 := time.Now()
				txid, err := srv.NewTx()
				must(err)
				must(srv.Lock(conns[c], txid, keys[c], proto.LockX))
				must(srv.Commit(conns[c], txid, []proto.SegImage{imgs[c][i%2]}))
				lat.Observe(time.Since(t0))
			}
		})
	}
	workers.Stop()
	elapsed := time.Since(start)
	after := srv.Snapshot()

	commits := clients * commitsPerClient
	res := E11Result{
		Clients:        clients,
		Commits:        commits,
		Seconds:        elapsed.Seconds(),
		CommitsPerSec:  float64(commits) / elapsed.Seconds(),
		WALSyncs:       after.WALSyncs - before.WALSyncs,
		GroupedCommits: after.WALGroupedCommits - before.WALGroupedCommits,
		Latency:        lat.Summary(),
	}
	res.SyncsPerCommit = float64(res.WALSyncs) / float64(commits)
	return res
}
