package lock

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var res = Name{Kind: KindPage, Q0: 1, Q1: 10, Q2: 0}

func TestCompatibilityMatrix(t *testing.T) {
	// Classic matrix: rows requested, columns held.
	want := map[[2]Mode]bool{
		{IS, IS}: true, {IS, IX}: true, {IS, S}: true, {IS, SIX}: true, {IS, X}: false,
		{IX, IS}: true, {IX, IX}: true, {IX, S}: false, {IX, SIX}: false, {IX, X}: false,
		{S, IS}: true, {S, IX}: false, {S, S}: true, {S, SIX}: false, {S, X}: false,
		{SIX, IS}: true, {SIX, IX}: false, {SIX, S}: false, {SIX, SIX}: false, {SIX, X}: false,
		{X, IS}: false, {X, IX}: false, {X, S}: false, {X, SIX}: false, {X, X}: false,
	}
	for pair, ok := range want {
		if compatible(pair[0], pair[1]) != ok {
			t.Errorf("compatible(%v,%v) != %v", pair[0], pair[1], ok)
		}
		// Matrix is symmetric.
		if compatible(pair[1], pair[0]) != ok {
			t.Errorf("compatible(%v,%v) asymmetric", pair[1], pair[0])
		}
	}
}

func TestSupLattice(t *testing.T) {
	cases := []struct{ a, b, want Mode }{
		{None, S, S}, {IS, IX, IX}, {S, IX, SIX}, {IX, S, SIX},
		{S, S, S}, {S, X, X}, {SIX, IX, SIX}, {SIX, X, X}, {IS, S, S},
	}
	for _, c := range cases {
		if got := sup(c.a, c.b); got != c.want {
			t.Errorf("sup(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if sup(c.b, c.a) != sup(c.a, c.b) {
			t.Errorf("sup(%v,%v) not commutative", c.a, c.b)
		}
	}
}

func TestSharedThenExclusiveBlocks(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, res, S, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, res, S, 0); err != nil {
		t.Fatal(err)
	}
	// X must block; no-wait returns timeout.
	if err := m.Acquire(3, res, X, -1); err != ErrTimeout {
		t.Fatalf("no-wait X: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(3, res, X, time.Second) }()
	time.Sleep(10 * time.Millisecond)
	m.ReleaseAll(1)
	select {
	case err := <-done:
		t.Fatalf("X granted with S still held: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatalf("X after releases: %v", err)
	}
	if m.Holds(3, res) != X {
		t.Fatal("holder table wrong")
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := NewManager()
	m.Acquire(1, res, S, 0)
	if err := m.Acquire(1, res, S, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, res, IS, 0); err != nil {
		t.Fatal(err) // covered by S already
	}
	if m.Holds(1, res) != S {
		t.Fatalf("mode = %v", m.Holds(1, res))
	}
}

func TestUpgrade(t *testing.T) {
	m := NewManager()
	m.Acquire(1, res, S, 0)
	if err := m.Acquire(1, res, X, 0); err != nil {
		t.Fatal(err)
	}
	if m.Holds(1, res) != X {
		t.Fatalf("mode = %v", m.Holds(1, res))
	}
	if m.Snapshot().Upgrades != 1 {
		t.Fatalf("upgrades = %d", m.Snapshot().Upgrades)
	}
}

func TestUpgradeWaitsForOtherReader(t *testing.T) {
	m := NewManager()
	m.Acquire(1, res, S, 0)
	m.Acquire(2, res, S, 0)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(1, res, X, time.Second) }()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("upgrade granted while another S held")
	default:
	}
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := NewManager()
	a := Name{Kind: KindPage, Q0: 1}
	b := Name{Kind: KindPage, Q0: 2}
	m.Acquire(1, a, X, 0)
	m.Acquire(2, b, X, 0)
	errCh := make(chan error, 1)
	go func() { errCh <- m.Acquire(1, b, X, time.Second) }()
	time.Sleep(20 * time.Millisecond) // let tx1 block on b
	// tx2 requesting a closes the cycle; it must get ErrDeadlock.
	err := m.Acquire(2, a, X, time.Second)
	if err != ErrDeadlock {
		t.Fatalf("cycle request: %v", err)
	}
	if m.Snapshot().Deadlocks != 1 {
		t.Fatalf("deadlocks = %d", m.Snapshot().Deadlocks)
	}
	// Victim aborts, releasing its locks; tx1 proceeds.
	m.ReleaseAll(2)
	if err := <-errCh; err != nil {
		t.Fatalf("survivor: %v", err)
	}
	m.ReleaseAll(1)
}

func TestUpgradeDeadlock(t *testing.T) {
	// Two readers both upgrading to X on the same name is the classic
	// upgrade deadlock.
	m := NewManager()
	m.Acquire(1, res, S, 0)
	m.Acquire(2, res, S, 0)
	errCh := make(chan error, 1)
	go func() { errCh <- m.Acquire(1, res, X, time.Second) }()
	time.Sleep(20 * time.Millisecond)
	err := m.Acquire(2, res, X, time.Second)
	if err != ErrDeadlock {
		t.Fatalf("second upgrader: %v", err)
	}
	m.ReleaseAll(2)
	if err := <-errCh; err != nil {
		t.Fatalf("first upgrader: %v", err)
	}
}

func TestTimeout(t *testing.T) {
	m := NewManager()
	m.Acquire(1, res, X, 0)
	start := time.Now()
	err := m.Acquire(2, res, X, 30*time.Millisecond)
	if err != ErrTimeout {
		t.Fatalf("got %v", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("returned before timeout")
	}
	if m.Snapshot().Timeouts != 1 {
		t.Fatalf("timeouts = %d", m.Snapshot().Timeouts)
	}
	// The timed-out waiter is gone: release and verify no phantom grant.
	m.ReleaseAll(1)
	if got := m.Holds(2, res); got != None {
		t.Fatalf("phantom grant %v", got)
	}
}

func TestDefaultTimeout(t *testing.T) {
	m := NewManager()
	m.DefaultTimeout = 20 * time.Millisecond
	m.Acquire(1, res, X, 0)
	if err := m.Acquire(2, res, S, 0); err != ErrTimeout {
		t.Fatalf("default timeout: %v", err)
	}
}

func TestFIFOFairnessPreventsWriterStarvation(t *testing.T) {
	m := NewManager()
	m.Acquire(1, res, S, 0)
	writerDone := make(chan error, 1)
	go func() { writerDone <- m.Acquire(2, res, X, time.Second) }()
	time.Sleep(10 * time.Millisecond)
	// A new reader must queue behind the waiting writer, not jump it.
	readerDone := make(chan error, 1)
	go func() { readerDone <- m.Acquire(3, res, S, time.Second) }()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-readerDone:
		t.Fatal("reader jumped the writer queue")
	default:
	}
	m.ReleaseAll(1)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
}

func TestReleaseAllWakesWaiters(t *testing.T) {
	m := NewManager()
	names := []Name{{Kind: KindPage, Q0: 1}, {Kind: KindPage, Q0: 2}, {Kind: KindPage, Q0: 3}}
	for _, n := range names {
		m.Acquire(1, n, X, 0)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(names))
	for i, n := range names {
		wg.Add(1)
		go func(i int, n Name) {
			defer wg.Done()
			errs[i] = m.Acquire(TxID(10+i), n, X, time.Second)
		}(i, n)
	}
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(1)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if len(m.Owned(1)) != 0 {
		t.Fatal("owner table not cleared")
	}
}

func TestIntentionModes(t *testing.T) {
	m := NewManager()
	f := Name{Kind: KindFile, Q0: 1, Q1: 1}
	// Two writers intending on the same file coexist.
	if err := m.Acquire(1, f, IX, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, f, IX, 0); err != nil {
		t.Fatal(err)
	}
	// A whole-file S lock conflicts with IX.
	if err := m.Acquire(3, f, S, -1); err != ErrTimeout {
		t.Fatalf("S vs IX: %v", err)
	}
	// But IS coexists with IX.
	if err := m.Acquire(4, f, IS, 0); err != nil {
		t.Fatal(err)
	}
}

func TestHoldersAndNames(t *testing.T) {
	m := NewManager()
	m.Acquire(7, res, S, 0)
	hs := m.Holders(res)
	if len(hs) != 1 || hs[0] != 7 {
		t.Fatalf("holders = %v", hs)
	}
	if m.Holders(Name{Kind: KindFile}) != nil {
		t.Fatal("phantom holders")
	}
	if PageName(1, 10, 3) == ObjectName(1, 10, 3) {
		t.Fatal("page and object names collide")
	}
}

func TestClose(t *testing.T) {
	m := NewManager()
	m.Acquire(1, res, X, 0)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, res, X, time.Second) }()
	time.Sleep(10 * time.Millisecond)
	m.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("waiter on close: %v", err)
	}
	if err := m.Acquire(3, res, S, 0); err != ErrClosed {
		t.Fatalf("acquire after close: %v", err)
	}
}

func TestConcurrentStress(t *testing.T) {
	m := NewManager()
	const goroutines = 16
	const iters = 200
	names := []Name{{Kind: KindPage, Q0: 1}, {Kind: KindPage, Q0: 2}, {Kind: KindPage, Q0: 3}}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(tx TxID) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := names[i%len(names)]
				mode := S
				if i%5 == 0 {
					mode = X
				}
				err := m.Acquire(tx, n, mode, 250*time.Millisecond)
				if err == ErrDeadlock || err == ErrTimeout {
					m.ReleaseAll(tx)
					continue
				}
				if err != nil {
					t.Errorf("tx %d: %v", tx, err)
					return
				}
				m.ReleaseAll(tx)
			}
		}(TxID(g + 1))
	}
	wg.Wait()
	// Everything must be released.
	for _, n := range names {
		if hs := m.Holders(n); len(hs) != 0 {
			t.Fatalf("leftover holders on %v: %v", n, hs)
		}
	}
}

func TestModeString(t *testing.T) {
	if X.String() != "X" || SIX.String() != "SIX" || None.String() != "none" {
		t.Fatal("mode strings")
	}
}

func TestCycleThroughAQueuedWaiterIsADeadlock(t *testing.T) {
	// T1 holds S on a, T2 S on b; T2 waits for X on a (behind T1), T3 for X
	// on b (behind T2). T1's S on b queues behind T3's X, which waits for
	// T2, which waits for T1: a cycle through a queued request.
	m := NewManager()
	a := Name{Kind: KindPage, Q0: 1}
	b := Name{Kind: KindPage, Q0: 2}
	m.Acquire(1, a, S, 0)
	m.Acquire(2, b, S, 0)
	t2, t3 := make(chan error, 1), make(chan error, 1)
	go func() { t2 <- m.Acquire(2, a, X, 10*time.Second) }()
	waitBlocks(t, m, 1)
	go func() { t3 <- m.Acquire(3, b, X, 10*time.Second) }()
	waitBlocks(t, m, 2)
	start := time.Now()
	if err := m.Acquire(1, b, S, 300*time.Millisecond); err != ErrDeadlock {
		t.Fatalf("T1's S on b behind T3's queued X: %v after %v, want ErrDeadlock at once", err, time.Since(start))
	}
	m.ReleaseAll(1)
	if err := <-t2; err != nil {
		t.Fatalf("T2: %v", err)
	}
	m.ReleaseAll(2)
	if err := <-t3; err != nil {
		t.Fatalf("T3: %v", err)
	}
	m.ReleaseAll(3)
}

// waitBlocks waits until m has blocked n requests in all.
func waitBlocks(t *testing.T, m *Manager, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); m.Snapshot().Blocks < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests blocked, want %d", m.Snapshot().Blocks, n)
		}
	}
}

// --- retained copies and their callbacks ---

var seg1, seg2 = Name{Kind: KindSegment, Q0: 1, Q1: 1}, Name{Kind: KindSegment, Q0: 1, Q1: 2}

func seg(n int64) Name { return Name{Kind: KindSegment, Q0: 1, Q1: uint64(n)} }

// accept returns a callback that gives the copy up, counting its calls.
func accept(calls *atomic.Int64) Callback {
	return func(Name) (bool, error) { calls.Add(1); return false, nil }
}

// idle reports whether the manager keeps nothing: no grant, no queue, no
// waiter.
func (m *Manager) idle() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.locks) == 0 && len(m.waits) == 0 && len(m.held) == 0
}

func TestRevokeSkipsExceptAndForgetsCompliers(t *testing.T) {
	m := NewManager()
	writer, reader, silent := m.Register(), m.Register(), m.Register()
	var wCalls, rCalls atomic.Int64
	if err := m.SetCallback(writer, accept(&wCalls)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetCallback(reader, accept(&rCalls)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []uint32{writer, reader, silent, 0} {
		if err := m.Copy(c, seg1); err != nil {
			t.Fatal(err)
		}
	}
	m.Copy(reader, seg2)
	m.Bind(7, writer)
	if err := m.Acquire(7, seg1, X, time.Second); err != nil {
		t.Fatal(err)
	}
	if wCalls.Load() != 0 || rCalls.Load() != 1 {
		t.Fatalf("callbacks: writer %d, reader %d; want 0 and 1", wCalls.Load(), rCalls.Load())
	}
	if !m.Holding(writer, seg1) || m.Holding(reader, seg1) || m.Holding(silent, seg1) || m.Holding(0, seg1) {
		t.Fatal("after the X only the writer should hold a copy of the segment")
	}
	if !m.Holding(reader, seg2) {
		t.Fatal("an X on one segment forgot a copy of another")
	}
	if st := m.Snapshot(); st.Callbacks != 1 || st.Refusals != 0 {
		t.Fatalf("counts = %d callbacks, %d refusals", st.Callbacks, st.Refusals)
	}
	// The writer's own fetch does not wait on its transaction's X; another
	// client's does.
	if err := m.Copy(writer, seg1); err != nil {
		t.Fatal(err)
	}
	fetched := make(chan error, 1)
	go func() { fetched <- m.Copy(reader, seg1) }()
	waitBlocks(t, m, 1)
	m.ReleaseAll(7)
	if err := <-fetched; err != nil || !m.Holding(reader, seg1) {
		t.Fatalf("a fetch behind another client's X, once it ended: %v", err)
	}
	// Drop reports the last holder leaving.
	if m.Drop(writer, seg2) || !m.Drop(reader, seg2) {
		t.Fatal("Drop's report of the last holder is wrong")
	}
	if err := m.SetCallback(99, nil); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("SetCallback for an unregistered id: %v", err)
	}
}

// refuser returns a callback that refuses, counting its calls and telling
// refused of each refusal.
func refuser(calls *atomic.Int64, refused chan<- struct{}) Callback {
	return func(Name) (bool, error) {
		calls.Add(1)
		refused <- struct{}{}
		return true, nil
	}
}

func TestRefusalParksUntilADrop(t *testing.T) {
	m := NewManager()
	busy := m.Register()
	var calls atomic.Int64
	refused := make(chan struct{}, 1)
	m.SetCallback(busy, refuser(&calls, refused))
	m.Copy(busy, seg1)
	granted := make(chan error)
	go func() { granted <- m.Acquire(1, seg1, X, 10*time.Second) }()
	<-refused
	// Long enough for a request that asked again on a timer to have done so
	// several times; one that waits for the holder's Drop asks nothing.
	time.Sleep(30 * time.Millisecond)
	select {
	case err := <-granted:
		t.Fatalf("the X returned %v while its copy was still refused", err)
	default:
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("a refuser was asked %d times before it let go, want 1", n)
	}
	m.Drop(busy, seg1) // the holder's transaction ended: its Released
	if err := <-granted; err != nil {
		t.Fatal(err)
	}
	if st := m.Snapshot(); st.Callbacks != 1 || st.Refusals != 1 {
		t.Fatalf("counts = %d callbacks, %d refusals; want one of each", st.Callbacks, st.Refusals)
	}
	m.ReleaseAll(1)
	if m.Holding(busy, seg1) || !m.idle() {
		t.Fatal("the X left a holder or a waiter behind")
	}
}

func TestRefusalWithNoDropTimesOut(t *testing.T) {
	m := NewManager()
	busy := m.Register()
	var calls atomic.Int64
	refused := make(chan struct{}, 1)
	m.SetCallback(busy, refuser(&calls, refused))
	m.Copy(busy, seg1)
	start := time.Now()
	if err := m.Acquire(1, seg1, X, 40*time.Millisecond); err != ErrTimeout {
		t.Fatalf("X over a copy in use: %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("gave up after %v, before the deadline", d)
	}
	if st := m.Snapshot(); st.Callbacks != 1 || st.Refusals != 1 || calls.Load() != 1 || st.Timeouts != 1 {
		t.Fatalf("counts = %+v, %d calls; want the one ask and one timeout", st, calls.Load())
	}
	if !m.Holding(busy, seg1) {
		t.Fatal("a refused copy was forgotten")
	}
	m.Drop(busy, seg1) // the transaction ends after all
	if !m.idle() {
		t.Fatal("the holder's Drop left the timed-out request behind")
	}
}

// TestDropRacingARefusalWakesTheRevoke: the holder's Drop lands anywhere
// between the ask and the wait — inside the callback, before its refusal is
// even returned, or from another goroutine at the same time — and the X
// still is granted at once, not at its deadline.
func TestDropRacingARefusalWakesTheRevoke(t *testing.T) {
	for _, inside := range []bool{true, false} {
		m := NewManager()
		busy := m.Register()
		var wg sync.WaitGroup
		m.SetCallback(busy, func(n Name) (bool, error) {
			if inside {
				m.Drop(busy, n)
			} else {
				wg.Add(1)
				go func() { defer wg.Done(); m.Drop(busy, n) }()
			}
			return true, nil
		})
		m.Copy(busy, seg1)
		start := time.Now()
		if err := m.Acquire(1, seg1, X, 10*time.Second); err != nil {
			t.Fatalf("drop inside the callback %v: %v", inside, err)
		}
		wg.Wait()
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("drop inside the callback %v: the X waited %v for a drop that had landed", inside, d)
		}
		if st := m.Snapshot(); st.Callbacks != 1 || st.Refusals != 1 {
			t.Fatalf("drop inside the callback %v: counts = %d callbacks, %d refusals; want one of each", inside, st.Callbacks, st.Refusals)
		}
	}
}

func TestUnreachableClientIsRemovedExactlyOnce(t *testing.T) {
	var gone []uint32
	var goneMu sync.Mutex
	m := NewManager()
	m.Gone = func(c uint32) {
		goneMu.Lock()
		gone = append(gone, c)
		goneMu.Unlock()
	}
	dead := m.Register()
	m.SetCallback(dead, func(Name) (bool, error) {
		time.Sleep(time.Millisecond) // let the concurrent requests all find it
		return false, errors.New("broken pipe")
	})
	const segs = 8
	for i := int64(0); i < segs; i++ {
		m.Copy(dead, seg(i))
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := int64(0); i < segs; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			if err := m.Acquire(TxID(i+1), seg(i), X, 10*time.Second); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if time.Since(start) > 5*time.Second {
		t.Fatal("an X past a dead client waited for the timeout")
	}
	if len(gone) != 1 || gone[0] != dead {
		t.Fatalf("owner told of %v, want exactly [%d]", gone, dead)
	}
	for i := int64(0); i < segs; i++ {
		if m.Holding(dead, seg(i)) {
			t.Fatalf("segment %d still lists the dead client", i)
		}
	}
	if m.Remove(dead) {
		t.Fatal("the dead client was still registered")
	}
}

// TestRefusalCycleIsADeadlock is item 15's cycle in one table: a reader's
// transaction refuses the writer's callback, then queues behind that
// writer's X. The edge that closes it fails its request at once.
func TestRefusalCycleIsADeadlock(t *testing.T) {
	m := NewManager()
	reader, writer := m.Register(), m.Register()
	refused := make(chan struct{}, 1)
	var calls atomic.Int64
	m.SetCallback(reader, refuser(&calls, refused))
	m.Bind(1, reader)
	m.Bind(2, writer)
	m.Copy(reader, seg1)
	granted := make(chan error, 1)
	go func() { granted <- m.Acquire(2, seg1, X, 10*time.Second) }()
	<-refused
	start := time.Now()
	if err := m.Acquire(1, seg1, IS, 10*time.Second); err != ErrDeadlock {
		t.Fatalf("the refusing reader's IS behind the writer's X: %v, want ErrDeadlock", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("the cycle took %v to break", d)
	}
	m.ReleaseAll(1)
	m.Drop(reader, seg1) // the reader's transaction ended: its Released
	if err := <-granted; err != nil {
		t.Fatalf("the writer after the victim let go: %v", err)
	}
	m.ReleaseAll(2)
	if !m.idle() {
		t.Fatal("the manager keeps something after everyone let go")
	}
}

// TestConcurrentUse is for the race detector and the lock-rank checker:
// fetchers copying, writers calling copies back, clients leaving, all at
// once.
func TestConcurrentUse(t *testing.T) {
	m := NewManager()
	const clients, rounds = 6, 200
	ids := make([]uint32, clients)
	var calls atomic.Int64
	for i := range ids {
		ids[i] = m.Register()
		m.SetCallback(ids[i], accept(&calls))
	}
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id uint32) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := seg(int64((i + r) % 3))
				if err := m.Copy(id, s); err != nil {
					t.Error(err)
				}
				switch r % 4 {
				case 0:
					tx := TxID(1000*(i+1) + r)
					m.Bind(tx, id)
					if err := m.Acquire(tx, s, X, time.Second); err != nil {
						t.Error(err)
					}
					m.ReleaseAll(tx)
				case 1:
					m.Drop(id, s)
				case 3:
					if i == 0 { // one client keeps leaving and coming back
						m.Remove(id)
						id = m.Register()
						m.SetCallback(id, accept(&calls))
					}
				}
			}
		}(i, id)
	}
	wg.Wait()
	for s := int64(0); s < 3; s++ {
		if err := m.Acquire(1, seg(s), X, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	m.ReleaseAll(1)
	if !m.idle() {
		t.Fatal("the manager keeps copies or waiters after everything was called back")
	}
}
