// bess-server runs a standalone BeSS storage server: it owns the storage
// areas under -dir and serves BeSS clients and node servers over TCP
// (paper §3, Figure 2). Restart runs ARIES recovery before accepting
// connections.
//
// Usage:
//
//	bess-server -dir /var/bess -addr :4466 -host 1
//
// SIGINT/SIGTERM shuts down gracefully: stop accepting, disconnect peers
// (aborting their in-flight transactions via the same path a dropped
// connection takes), write a final checkpoint, and close the areas. A
// second signal forces immediate exit.
//
// The accept loop and the checkpoint ticker belong to one group, stopped
// before the final checkpoint; the second-signal watcher to another, which
// lasts until the server has closed (DESIGN.md §4e).
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"bess/internal/goleak"
	"bess/internal/rpc"
	"bess/internal/server"
)

func main() {
	dir := flag.String("dir", "bess-data", "storage directory (areas, WAL, catalog)")
	addr := flag.String("addr", "127.0.0.1:4466", "TCP listen address")
	host := flag.Uint("host", 1, "host number embedded in OIDs (unique per server)")
	ckptEvery := flag.Duration("checkpoint", time.Minute, "fuzzy checkpoint interval (0 disables)")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown budget for peer teardown")
	flag.Parse()

	srv, err := server.Open(*dir, uint16(*host))
	if err != nil {
		log.Fatalf("open server: %v", err)
	}

	l, err := rpc.Listen(*addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("bess-server host=%d dir=%s listening on %s", *host, *dir, l.Addr())

	var serving goleak.Group
	if *ckptEvery > 0 {
		serving.Go("bess-server.checkpoint", func(stop <-chan struct{}) {
			t := time.NewTicker(*ckptEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				if err := srv.Checkpoint(); err != nil {
					log.Printf("checkpoint: %v", err)
				}
			}
		})
	}

	// Track live peers so shutdown can disconnect them; a peer leaves the
	// set through its OnClose hook.
	var (
		peerMu sync.Mutex
		peers  = make(map[*rpc.Peer]bool)
	)
	serving.Go("bess-server.accept", func(<-chan struct{}) {
		for {
			p, err := l.Accept()
			if err != nil {
				return
			}
			server.ServePeer(srv, p)
			peerMu.Lock()
			peers[p] = true
			peerMu.Unlock()
			p.SetOnClose(func(error) {
				peerMu.Lock()
				delete(peers, p)
				peerMu.Unlock()
			})
		}
	})

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	var forced goleak.Group
	defer forced.Stop()
	forced.Go("bess-server.secondSignal", func(stop <-chan struct{}) {
		select {
		case <-sig:
			log.Fatalf("second signal: forcing exit")
		case <-stop:
		}
	})

	// Stop accepting and checkpointing, then disconnect every peer. Closing
	// a peer joins its read loop and so its OnClose hooks, which abort the
	// client's in-flight transactions — exactly what a dropped connection
	// does, so no transaction is left holding locks.
	if err := l.Close(); err != nil {
		log.Printf("close listener: %v", err)
	}
	serving.Stop() // no new peers can register past this point
	var closing goleak.Group
	peerMu.Lock()
	for p := range peers {
		closing.Go("bess-server.closePeer", func(<-chan struct{}) { p.Close() })
	}
	peerMu.Unlock()
	if stranded := closing.StopWithin(*drain); stranded > 0 {
		log.Printf("drain budget (%v) exhausted with %d peer(s) still live", *drain, stranded)
	}

	// A final checkpoint keeps the next restart's analysis pass short. Its
	// failure is logged, not fatal: recovery works from any log suffix.
	if err := srv.Checkpoint(); err != nil {
		log.Printf("final checkpoint: %v", err)
	}

	st := srv.Snapshot()
	log.Printf("served %d messages, %d commits, %d callbacks", st.Messages, st.Commits, st.Callbacks)
	// The final close flushes the WAL; a failure here means the last
	// commits may not be durable and must not exit 0.
	if err := srv.Close(); err != nil {
		log.Fatalf("close server: %v", err)
	}
}
