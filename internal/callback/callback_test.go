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

// refuser returns a callback that refuses, counting its calls and telling
// refused of each refusal.
func refuser(calls *atomic.Int64, refused chan<- struct{}) Func {
	return func(proto.SegKey) (bool, error) {
		calls.Add(1)
		refused <- struct{}{}
		return true, nil
	}
}

// waitsOn reports whether the table keeps a wake-up channel for s.
func (t *Table) waitsOn(s proto.SegKey) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.changed[s] != nil
}

func TestRefusalParksUntilADrop(t *testing.T) {
	tb := New(errTimedOut, nil)
	busy := tb.Register()
	var calls atomic.Int64
	refused := make(chan struct{}, 1)
	tb.SetCallback(busy, refuser(&calls, refused))
	tb.Record(seg(1), busy)
	revoked := make(chan error)
	go func() { revoked <- tb.Revoke(seg(1), 0, 10*time.Second) }()
	<-refused
	// Long enough for a revoke that asked again on a timer to have done so
	// several times; one that waits for the holder's Drop asks nothing.
	time.Sleep(30 * time.Millisecond)
	select {
	case err := <-revoked:
		t.Fatalf("the revoke returned %v while its copy was still refused", err)
	default:
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("a refuser was asked %d times before it let go, want 1", n)
	}
	tb.Drop(seg(1), busy) // the holder's transaction ended: its Released
	if err := <-revoked; err != nil {
		t.Fatal(err)
	}
	if cb, ref := tb.Counts(); cb != 1 || ref != 1 {
		t.Fatalf("counts = %d callbacks, %d refusals; want one of each", cb, ref)
	}
	if tb.holds(seg(1), busy) || tb.waitsOn(seg(1)) {
		t.Fatal("the revoke left a holder or a wake-up channel behind")
	}
}

func TestRefusalWithNoDropTimesOut(t *testing.T) {
	tb := New(errTimedOut, nil)
	busy := tb.Register()
	var calls atomic.Int64
	refused := make(chan struct{}, 1)
	tb.SetCallback(busy, refuser(&calls, refused))
	tb.Record(seg(1), busy)
	start := time.Now()
	if err := tb.Revoke(seg(1), 0, 40*time.Millisecond); err != errTimedOut {
		t.Fatalf("revoke of a copy in use: %v, want the owner's error", err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("gave up after %v, before the deadline", d)
	}
	if cb, ref := tb.Counts(); cb != 1 || ref != 1 || calls.Load() != 1 {
		t.Fatalf("counts = %d callbacks, %d refusals, %d calls; want the one ask", cb, ref, calls.Load())
	}
	if !tb.holds(seg(1), busy) {
		t.Fatal("a refused copy was forgotten")
	}
	tb.Drop(seg(1), busy) // the transaction ends after all
	if tb.waitsOn(seg(1)) {
		t.Fatal("the holder's Drop left the timed-out revoke's wake-up channel behind")
	}
}

// TestDropRacingARefusalWakesTheRevoke: the holder's Drop lands anywhere
// between the ask and the park — inside the callback, before its refusal is
// even returned, or from another goroutine at the same time — and the revoke
// still ends at once, not at its deadline.
func TestDropRacingARefusalWakesTheRevoke(t *testing.T) {
	for _, inside := range []bool{true, false} {
		tb := New(errTimedOut, nil)
		busy := tb.Register()
		var wg sync.WaitGroup
		tb.SetCallback(busy, func(s proto.SegKey) (bool, error) {
			if inside {
				tb.Drop(s, busy)
			} else {
				wg.Add(1)
				go func() { defer wg.Done(); tb.Drop(s, busy) }()
			}
			return true, nil
		})
		tb.Record(seg(1), busy)
		start := time.Now()
		if err := tb.Revoke(seg(1), 0, 10*time.Second); err != nil {
			t.Fatalf("drop inside the callback %v: %v", inside, err)
		}
		wg.Wait()
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("drop inside the callback %v: the revoke waited %v for a drop that had landed", inside, d)
		}
		if cb, ref := tb.Counts(); cb != 1 || ref != 1 {
			t.Fatalf("drop inside the callback %v: counts = %d callbacks, %d refusals; want one of each", inside, cb, ref)
		}
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
	if len(tb.copies) != 0 || len(tb.changed) != 0 {
		t.Fatalf("%d segments still have holders, %d a wake-up channel, after everything was revoked", len(tb.copies), len(tb.changed))
	}
}
