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

func (b *flakyBacking) WriteBack(id page.ID, data []byte) error {
	if b.failWrite.Add(-1) >= 0 {
		return errBacking
	}
	return b.memBacking.WriteBack(id, data)
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
	stored := back.pages[pid(1)][0]
	back.mu.Unlock()
	if stored != 0xEE || sc.WriteBacks() != 1 {
		t.Fatalf("backing holds %#x after %d write-backs", stored, sc.WriteBacks())
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
