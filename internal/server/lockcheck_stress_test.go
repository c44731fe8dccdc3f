//go:build invariants

package server

import (
	"fmt"
	"sync"
	"testing"

	"bess/internal/lockcheck"
	"bess/internal/proto"
)

// TestLockcheckEnabled guards against the build tag silently not reaching
// this package: the stress test below is only meaningful when the runtime
// checker is compiled in.
func TestLockcheckEnabled(t *testing.T) {
	if !lockcheck.Enabled {
		t.Fatal("invariants build tag set but lockcheck.Enabled is false")
	}
}

// TestLockcheckServerWorkload drives a full server workload — connects,
// fetches, lock calls, commits, aborts, disconnects, callback revocations —
// with the rank-checked wrappers active. Any nested acquisition that
// violates the hierarchy in lockorder.go, and any recursive acquisition,
// panics here instead of deadlocking in production.
func TestLockcheckServerWorkload(t *testing.T) {
	const clients, rounds = 6, 10
	dir := t.TempDir()
	s, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := s.OpenDB("lockcheck", true)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]proto.SegKey, clients)
	imgs := make([][2]proto.SegImage, clients)
	conns := make([]uint32, clients)
	for c := 0; c < clients; c++ {
		keys[c], imgs[c], _ = altImages(t, s, db, fmt.Sprintf("lc-%d", c))
		if conns[c], err = s.Hello(fmt.Sprintf("lc%d", c)); err != nil {
			t.Fatal(err)
		}
		// A callback target so commits exercise the revocation path too.
		cc := c
		if err := s.SetCallback(conns[c], func(k proto.SegKey) (bool, error) {
			_ = cc
			return false, nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Fetch registers a cached copy, so the next writer's commit
				// revokes it via the callback.
				if _, _, _, err := s.FetchSeg(conns[c], keys[c]); err != nil {
					errs <- err
					return
				}
				txid, err := s.NewTx()
				if err != nil {
					errs <- err
					return
				}
				if err := s.Lock(conns[c], txid, keys[c], proto.LockX); err != nil {
					errs <- err
					return
				}
				if i%3 == 2 {
					if err := s.Abort(conns[c], txid); err != nil {
						errs <- err
						return
					}
					continue
				}
				if err := s.Commit(conns[c], txid, []proto.SegImage{imgs[c][i%2]}); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for c := 0; c < clients; c++ {
		s.Disconnect(conns[c])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A clean reopen proves the log and catalog survived the tagged build.
	s2, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}
