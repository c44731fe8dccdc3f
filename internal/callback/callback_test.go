package callback

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bess/internal/proto"
)

var errTimedOut = errors.New("owner's typed timeout")

func seg(n int64) proto.SegKey { return proto.SegKey{Area: 1, Start: n} }

// accept returns a callback that gives the copy up, counting its calls.
func accept(calls *atomic.Int64) Func {
	return func(proto.SegKey) (bool, error) { calls.Add(1); return false, nil }
}

func (t *Table) holds(s proto.SegKey, client uint32) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.copies[s][client]
}

func TestRevokeSkipsExceptAndForgetsCompliers(t *testing.T) {
	tb := New(errTimedOut, nil)
	writer, reader, silent := tb.Register(), tb.Register(), tb.Register()
	var wCalls, rCalls atomic.Int64
	if err := tb.SetCallback(writer, accept(&wCalls)); err != nil {
		t.Fatal(err)
	}
	if err := tb.SetCallback(reader, accept(&rCalls)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []uint32{writer, reader, silent, 0} {
		tb.Record(seg(1), c)
	}
	tb.Record(seg(2), reader)
	if err := tb.Revoke(seg(1), writer, time.Second); err != nil {
		t.Fatal(err)
	}
	if wCalls.Load() != 0 || rCalls.Load() != 1 {
		t.Fatalf("callbacks: writer %d, reader %d; want 0 and 1", wCalls.Load(), rCalls.Load())
	}
	if !tb.holds(seg(1), writer) || tb.holds(seg(1), reader) || tb.holds(seg(1), silent) || tb.holds(seg(1), 0) {
		t.Fatal("after the revoke only the writer should hold the segment")
	}
	if !tb.holds(seg(2), reader) {
		t.Fatal("a revoke of one segment forgot a copy of another")
	}
	if cb, ref := tb.Counts(); cb != 1 || ref != 0 {
		t.Fatalf("counts = %d callbacks, %d refusals", cb, ref)
	}
	// Drop reports the last holder leaving.
	if tb.Drop(seg(2), writer) || !tb.Drop(seg(2), reader) {
		t.Fatal("Drop's report of the last holder is wrong")
	}
	if err := tb.SetCallback(99, nil); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("SetCallback for an unregistered id: %v", err)
	}
}

func TestRefusalIsRetriedUntilTheDeadline(t *testing.T) {
	tb := New(errTimedOut, nil)
	busy := tb.Register()
	var calls atomic.Int64
	release := make(chan struct{})
	tb.SetCallback(busy, func(proto.SegKey) (bool, error) {
		calls.Add(1)
		select {
		case <-release:
			return false, nil
		default:
			return true, nil
		}
	})
	tb.Record(seg(1), busy)
	start := time.Now()
	if err := tb.Revoke(seg(1), 0, 40*time.Millisecond); err != errTimedOut {
		t.Fatalf("revoke of a copy in use: %v, want the owner's error", err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("gave up after %v, before the deadline", d)
	}
	n := calls.Load()
	if n < 2 {
		t.Fatalf("a refuser was asked %d times, want a retry", n)
	}
	if cb, ref := tb.Counts(); cb != n || ref != n {
		t.Fatalf("counts = %d callbacks, %d refusals after %d refused calls", cb, ref, n)
	}
	if !tb.holds(seg(1), busy) {
		t.Fatal("a refused copy was forgotten")
	}
	// The transaction ends while a revoke is polling: it succeeds.
	time.AfterFunc(3*pollInterval, func() { close(release) })
	if err := tb.Revoke(seg(1), 0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if tb.holds(seg(1), busy) {
		t.Fatal("a copy given up is still recorded")
	}
}

func TestUnreachableClientIsRemovedExactlyOnce(t *testing.T) {
	var gone []uint32
	var goneMu sync.Mutex
	tb := New(errTimedOut, func(c uint32) {
		goneMu.Lock()
		gone = append(gone, c)
		goneMu.Unlock()
	})
	dead := tb.Register()
	tb.SetCallback(dead, func(proto.SegKey) (bool, error) {
		time.Sleep(time.Millisecond) // let the concurrent revokes all find it
		return false, errors.New("broken pipe")
	})
	const segs = 8
	for i := int64(0); i < segs; i++ {
		tb.Record(seg(i), dead)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := int64(0); i < segs; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			if err := tb.Revoke(seg(i), 0, 10*time.Second); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if time.Since(start) > 5*time.Second {
		t.Fatal("revoking past a dead client waited for the timeout")
	}
	if len(gone) != 1 || gone[0] != dead {
		t.Fatalf("owner told of %v, want exactly [%d]", gone, dead)
	}
	for i := int64(0); i < segs; i++ {
		if tb.holds(seg(i), dead) {
			t.Fatalf("segment %d still lists the dead client", i)
		}
	}
	if tb.Remove(dead) {
		t.Fatal("the dead client was still registered")
	}
}

// TestConcurrentUse is for the race detector and the lock-rank checker:
// fetchers recording, writers revoking, clients leaving, all at once.
func TestConcurrentUse(t *testing.T) {
	tb := New(errTimedOut, nil)
	const clients, rounds = 6, 200
	ids := make([]uint32, clients)
	var calls atomic.Int64
	for i := range ids {
		ids[i] = tb.Register()
		tb.SetCallback(ids[i], accept(&calls))
	}
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id uint32) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := seg(int64((i + r) % 3))
				tb.Record(s, id)
				switch r % 4 {
				case 0:
					if err := tb.Revoke(s, id, time.Second); err != nil {
						t.Error(err)
					}
				case 1:
					tb.Drop(s, id)
				case 3:
					if i == 0 { // one client keeps leaving and coming back
						tb.Remove(id)
						id = tb.Register()
						tb.SetCallback(id, accept(&calls))
					}
				}
			}
		}(i, id)
	}
	wg.Wait()
	for s := int64(0); s < 3; s++ {
		if err := tb.Revoke(seg(s), 0, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if len(tb.copies) != 0 {
		t.Fatalf("%d segments still have holders after everything was revoked", len(tb.copies))
	}
}
