package client

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bess/internal/server"
)

// TestConcurrentTransfersPreserveInvariant drives several client sessions
// transferring money between two accounts in the same segment. Conflicts
// surface as lock timeouts or callback-revocation failures (the paper's
// timeout-based deadlock handling); clients abort and retry. Whatever the
// interleaving, committed state must conserve the total.
func TestConcurrentTransfersPreserveInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("contention stress test; skipped with -short")
	}
	srv := server.NewMem(1)
	defer srv.Close()
	srv.SetLockTimeout(100 * time.Millisecond)

	setup := openRemoteT(t, srv, "setup")
	td, _ := setup.RegisterType(nodeType)
	seg, _ := setup.CreateSegment(1, 1, 2, -1)
	setup.Begin()
	a, err := setup.CreateObject(seg, td.ID, nodeBytes(700))
	if err != nil {
		t.Fatal(err)
	}
	b, err := setup.CreateObject(seg, td.ID, nodeBytes(300))
	if err != nil {
		t.Fatal(err)
	}
	setup.SetRoot("a", a)
	setup.SetRoot("b", b)
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	const (
		workers   = 3
		transfers = 5
	)
	var wg sync.WaitGroup
	var committed sync.Map
	fatal := make(chan error, workers)
	for w := 0; w < workers; w++ {
		sess := openRemoteT(t, srv, "worker")
		wg.Add(1)
		go func(w int, sess *Session) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			done := 0
			for attempt := 0; done < transfers && attempt < transfers*60; attempt++ {
				if err := runTransfer(sess, uint64(w+1)); err != nil {
					// Conflict (aborted inside): back off with jitter so
					// callbacks find the session between transactions.
					time.Sleep(time.Duration(1+rng.Intn(8)) * time.Millisecond)
					continue
				}
				committed.Store([2]int{w, done}, true)
				done++
			}
			if done < transfers {
				fatal <- errTooFewCommits
			}
		}(w, sess)
	}
	wg.Wait()
	select {
	case err := <-fatal:
		t.Fatal(err)
	default:
	}

	// The invariant: total conserved across every interleaving.
	check := openRemoteT(t, srv, "checker")
	check.Begin()
	oa, err := check.Root("a")
	if err != nil {
		t.Fatal(err)
	}
	ob, err := check.Root("b")
	if err != nil {
		t.Fatal(err)
	}
	total := nodeVal(oa) + nodeVal(ob)
	check.Commit()
	if total != 1000 {
		t.Fatalf("invariant broken: total = %d", total)
	}
	var n int
	committed.Range(func(any, any) bool { n++; return true })
	if n != workers*transfers {
		t.Fatalf("committed %d of %d transfers", n, workers*transfers)
	}
	st := srv.Snapshot()
	t.Logf("commits=%d aborts=%d callbacks=%d refusals=%d",
		st.Commits, st.Aborts, st.Callbacks, st.CallbackRefusals)
}

var errTooFewCommits = &retryExhausted{}

type retryExhausted struct{}

func (*retryExhausted) Error() string { return "client: too few transfers committed under contention" }

// runTransfer moves `amount` from a to b in one transaction, aborting on
// any conflict.
func runTransfer(sess *Session, amount uint64) error {
	if err := sess.Begin(); err != nil {
		return err
	}
	fail := func(err error) error {
		_ = sess.Abort()
		return err
	}
	oa, err := sess.Root("a")
	if err != nil {
		return fail(err)
	}
	ob, err := sess.Root("b")
	if err != nil {
		return fail(err)
	}
	va, vb := nodeVal(oa), nodeVal(ob)
	if va < amount {
		amount = va
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], va-amount)
	if err := oa.Write(8, buf[:]); err != nil {
		return fail(err)
	}
	binary.BigEndian.PutUint64(buf[:], vb+amount)
	if err := ob.Write(8, buf[:]); err != nil {
		return fail(err)
	}
	return sess.Commit()
}

// openRemoteT is openRemote without the second return value.
func openRemoteT(t *testing.T, srv *server.Server, name string) *Session {
	t.Helper()
	s, _ := openRemote(t, srv, name)
	if _, err := s.RegisterType(nodeType); err != nil {
		t.Fatal(err)
	}
	return s
}
