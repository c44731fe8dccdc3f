package shm

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bess/internal/page"
)

var errBacking = errors.New("backing store said no")

// flakyBacking fails the next failFetch fetches and failWrite write-backs;
// a fetch of the page named by gated waits for gate to close first.
type flakyBacking struct {
	*memBacking
	failFetch, failWrite atomic.Int32
	gated                page.ID
	gate                 chan struct{}
	entered              chan struct{} // closed by the first gated fetch
	enterOnce            sync.Once
}

func (b *flakyBacking) Fetch(id page.ID) ([]byte, error) {
	if b.gate != nil && id == b.gated {
		b.enterOnce.Do(func() { close(b.entered) })
		<-b.gate
	}
	if b.failFetch.Add(-1) >= 0 {
		return nil, errBacking
	}
	return b.memBacking.Fetch(id)
}

func (b *flakyBacking) WriteBack(id page.ID, fill, data []byte) ([]byte, error) {
	if b.failWrite.Add(-1) >= 0 {
		return nil, errBacking
	}
	return b.memBacking.WriteBack(id, fill, data)
}

func firstByte(p *Process, id page.ID) (byte, error) {
	r, err := p.Access(id)
	if err != nil {
		return 0, err
	}
	var b [1]byte
	err = p.Read(r, b[:])
	return b[0], err
}

func readByte(t *testing.T, p *Process, id page.ID) byte {
	t.Helper()
	b, err := firstByte(p, id)
	if err != nil {
		t.Fatalf("read %v: %v", id, err)
	}
	return b
}

// A fetch that fails leaves nothing cached under the page's id: the retry
// fetches again and reads the page's own bytes, not the evicted page's.
func TestFailedFetchIsNotAHit(t *testing.T) {
	back := &flakyBacking{memBacking: newBacking()}
	back.put(pid(1), 1)
	back.put(pid(2), 2)
	sc, _ := NewSharedCache(1, 8, back)
	p, _ := sc.Attach()
	if got := readByte(t, p, pid(1)); got != 1 {
		t.Fatalf("page 1 reads %d", got)
	}
	back.failFetch.Store(1)
	if _, err := p.Access(pid(2)); !errors.Is(err, errBacking) {
		t.Fatalf("access with a failing fetch: %v", err)
	}
	before := back.fetches
	if got := readByte(t, p, pid(2)); got != 2 {
		t.Fatalf("page 2 reads %d after a failed fill", got)
	}
	if back.fetches == before {
		t.Fatal("retry was served from the slot the failed fill left behind")
	}
}

// A dirty victim whose write-back fails keeps its slot: it is still readable
// with its modification, and a later eviction writes it back.
func TestFailedWriteBackKeepsVictim(t *testing.T) {
	back := &flakyBacking{memBacking: newBacking()}
	back.put(pid(1), 1)
	back.put(pid(2), 2)
	sc, _ := NewSharedCache(1, 8, back)
	p, _ := sc.Attach()
	r1, err := p.Access(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(r1, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	back.failWrite.Store(1)
	if _, err := p.Access(pid(2)); !errors.Is(err, errBacking) {
		t.Fatalf("access with a failing write-back: %v", err)
	}
	if got := readByte(t, p, pid(1)); got != 0xEE {
		t.Fatalf("dirty page reads %#x after its write-back failed", got)
	}
	if got := readByte(t, p, pid(2)); got != 2 {
		t.Fatalf("page 2 reads %d", got)
	}
	back.mu.Lock()
	stored, writes := back.pages[pid(1)][0], back.writes
	back.mu.Unlock()
	if stored != 0xEE || writes != 1 {
		t.Fatalf("backing holds %#x after %d write-backs", stored, writes)
	}
}

// A process that asks for a page while another's fill of it is in flight
// never sees the bytes of the page the slot held before, whether the fill
// succeeds or fails.
func TestWaiterNeverSeesForeignBytes(t *testing.T) {
	for _, fails := range []int32{0, 1} {
		back := &flakyBacking{memBacking: newBacking(), gated: pid(2),
			gate: make(chan struct{}), entered: make(chan struct{})}
		back.put(pid(1), 1)
		back.put(pid(2), 2)
		sc, _ := NewSharedCache(1, 8, back)
		p1, _ := sc.Attach()
		p2, _ := sc.Attach()
		if got := readByte(t, p1, pid(1)); got != 1 {
			t.Fatalf("page 1 reads %d", got)
		}
		back.failFetch.Store(fails)
		filler := make(chan error, 1)
		go func() {
			_, err := p1.Access(pid(2))
			filler <- err
		}()
		<-back.entered // p1 has claimed the slot and is fetching
		waiter := make(chan byte, 1)
		go func() {
			b, err := firstByte(p2, pid(2))
			if err != nil {
				t.Errorf("fails=%d: waiter: %v", fails, err)
			}
			waiter <- b
		}()
		time.Sleep(10 * time.Millisecond) // let p2 reach the claimed slot
		close(back.gate)
		if err := <-filler; (err != nil) != (fails > 0) {
			t.Fatalf("fails=%d: filler got %v", fails, err)
		}
		if got := <-waiter; got != 2 {
			t.Fatalf("fails=%d: waiter read %d from page 2's slot", fails, got)
		}
	}
}

// A process that asks for the page a miss is replacing waits out the claim,
// fetches the page again and maps it at the frame the SMT records for it: the
// frame the page had before the claim is not handed to another page while the
// waiter's reference still points at it.
func TestVictimWaiterKeepsItsFrame(t *testing.T) {
	back := &flakyBacking{memBacking: newBacking(), gated: pid(2),
		gate: make(chan struct{}), entered: make(chan struct{})}
	for _, n := range []int{1, 2, 4, 7} {
		back.put(pid(n), byte(n))
	}
	sc, _ := NewSharedCache(2, 8, back)
	p1, _ := sc.Attach()
	p2, _ := sc.Attach()
	readByte(t, p1, pid(1))
	readByte(t, p1, pid(4))
	filler := make(chan error, 1)
	go func() {
		_, err := p2.Access(pid(2))
		filler <- err
	}()
	<-back.entered // p2 has claimed a slot and is fetching
	var victim page.ID
	for i := 0; i < 2; i++ {
		if s, _ := sc.Pool().Slot(i); s.Pins == 1 {
			victim = s.ID
		}
	}
	if victim != pid(1) && victim != pid(4) {
		t.Fatalf("claimed slot holds %v", victim)
	}
	waiter := make(chan Ref, 1)
	go func() {
		r, err := p1.Access(victim)
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiter <- r
	}()
	time.Sleep(10 * time.Millisecond) // let p1 reach the claimed slot
	close(back.gate)
	if err := <-filler; err != nil {
		t.Fatal(err)
	}
	r := <-waiter
	sc.mu.Lock()
	f, ok := sc.frameOf[victim]
	sc.mu.Unlock()
	if !ok || f != r.FrameOf() {
		t.Fatalf("waiter holds frame %d, the SMT says %d (assigned %v)", r.FrameOf(), f, ok)
	}
	r7, err := p1.Access(pid(7))
	if err != nil {
		t.Fatal(err)
	}
	if r7.FrameOf() == r.FrameOf() {
		t.Fatalf("page 7 was given frame %d, which still maps %v", r7.FrameOf(), victim)
	}
	var b [1]byte
	if err := p1.Read(r, b[:]); err != nil || b[0] != byte(victim.Page) {
		t.Fatalf("%v's reference reads %d, %v", victim, b[0], err)
	}
}

// A flush that runs while a miss is replacing a dirty page writes that page's
// bytes under its own id or leaves it to the miss; it never writes the
// incoming page's bytes under the outgoing page's id.
func TestFlushDuringClaim(t *testing.T) {
	for _, fails := range []int32{0, 1} {
		back := &flakyBacking{memBacking: newBacking(), gated: pid(2),
			gate: make(chan struct{}), entered: make(chan struct{})}
		back.put(pid(1), 1)
		back.put(pid(2), 2)
		sc, _ := NewSharedCache(1, 8, back)
		p, _ := sc.Attach()
		r1, err := p.Access(pid(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(r1, []byte{0xEE}); err != nil {
			t.Fatal(err)
		}
		back.failFetch.Store(fails)
		filler := make(chan error, 1)
		go func() {
			_, err := p.Access(pid(2))
			filler <- err
		}()
		<-back.entered // page 1 is written back, its slot claimed for page 2
		if err := sc.FlushDirty(); err != nil {
			t.Fatal(err)
		}
		close(back.gate)
		if err := <-filler; (err != nil) != (fails > 0) {
			t.Fatalf("fails=%d: filler got %v", fails, err)
		}
		if err := sc.FlushDirty(); err != nil {
			t.Fatal(err)
		}
		back.mu.Lock()
		one, two := back.pages[pid(1)][0], back.pages[pid(2)][0]
		back.mu.Unlock()
		if one != 0xEE || two != 2 {
			t.Fatalf("fails=%d: backing holds %#x for page 1 and %#x for page 2", fails, one, two)
		}
		if dirty := sc.Pool().DirtyPages(); len(dirty) != 0 {
			t.Fatalf("fails=%d: still dirty after a flush: %v", fails, dirty)
		}
	}
}

// checkedBacking refuses a write-back whose bytes are not the page's own.
type checkedBacking struct {
	*memBacking
	foreign atomic.Int32
}

func (b *checkedBacking) WriteBack(id page.ID, fill, data []byte) ([]byte, error) {
	if data[0] != byte(id.Page) || fill[0] != byte(id.Page) {
		b.foreign.Add(1)
	}
	return b.memBacking.WriteBack(id, fill, data)
}

// Flushes racing evictions: every write-back carries the bytes of the page it
// is filed under.
func TestFlushRacingEviction(t *testing.T) {
	back := &checkedBacking{memBacking: newBacking()}
	const pages = 6
	for n := 1; n <= pages; n++ {
		back.put(pid(n), byte(n))
	}
	sc, _ := NewSharedCache(2, 16, back)
	p, _ := sc.Attach()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := sc.FlushDirty(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 3000; i++ {
		n := i%pages + 1
		r, err := p.Access(pid(n))
		if err != nil {
			t.Fatal(err)
		}
		// Rewrite the tag so the page is dirty and still says whose it is.
		// ErrNotMapped: the clock took the frame first; the next round
		// Accesses again.
		err = p.WithLatch(r, func() error { return p.Write(r, []byte{byte(n)}) })
		if err != nil && !errors.Is(err, ErrNotMapped) {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if n := back.foreign.Load(); n != 0 {
		t.Fatalf("%d write-backs carried another page's bytes", n)
	}
}
