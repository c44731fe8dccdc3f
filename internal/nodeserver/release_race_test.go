package nodeserver

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"bess/internal/proto"
)

// countingUpstream is the owning server as far as this test needs it: it
// counts the node's segment fetches and releases.
type countingUpstream struct {
	proto.Conn
	fetches, releases atomic.Int64
	released          []proto.SegKey // what the last Released named; tests that read it release from one goroutine
}

func (u *countingUpstream) Hello(string) (uint32, error) { return upstreamID, nil }
func (u *countingUpstream) SetCallback(uint32, func(proto.SegKey) (bool, error)) error {
	return nil
}
func (u *countingUpstream) FetchSeg(uint32, proto.SegKey) ([]byte, []byte, []byte, error) {
	u.fetches.Add(1)
	return []byte{1}, nil, []byte{2}, nil
}
func (u *countingUpstream) Released(_ uint32, segs []proto.SegKey) error {
	u.releases.Add(1)
	u.released = segs
	return nil
}

// TestReleaseNeverStrandsAHit races the last holder's Released against
// another local's FetchSeg. Whichever goes first, a fetch served from the node
// cache must not coincide with the node releasing the segment upstream: the
// owning server would stop calling the node back while a local still reads the
// node's image. (Finding the image and recording the holder, like dropping the
// last holder and the image, are each one step under NodeServer.mu.)
func TestReleaseNeverStrandsAHit(t *testing.T) {
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	up := &countingUpstream{}
	ns, err := New(up, "node", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := ns.Hello("a")
	l2, _ := ns.Hello("b")
	seg := proto.SegKey{Area: 1, Start: 8}
	for i := 0; i < rounds; i++ {
		if _, _, _, err := ns.FetchSeg(l1, seg); err != nil {
			t.Fatal(err)
		}
		fetches, releases := up.fetches.Load(), up.releases.Load()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); ns.Released(l1, []proto.SegKey{seg}) }()
		go func() { defer wg.Done(); ns.FetchSeg(l2, seg) }()
		wg.Wait()
		hit := up.fetches.Load() == fetches
		released := up.releases.Load() != releases
		if hit && released {
			t.Fatalf("round %d: a local was served the node's image of a segment the node released upstream", i)
		}
		if !hit && !released {
			t.Fatalf("round %d: the image was fetched again although its last holder never left", i)
		}
		// Either way l2 is now the only holder, and its leaving is told upstream.
		before := up.releases.Load()
		ns.Released(l2, []proto.SegKey{seg})
		if up.releases.Load() != before+1 {
			t.Fatalf("round %d: the last holder left and the upstream was not told", i)
		}
	}
}

// TestUpstreamCallbackNeverStrandsAHit races an upstream revocation against a
// local's FetchSeg. If the node answers that it complied, a local whose fetch
// was served from the node cache must have been called back: the node drops
// its image before it revokes, so a hit is always there for Revoke to find.
func TestUpstreamCallbackNeverStrandsAHit(t *testing.T) {
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	up := &countingUpstream{}
	ns, err := New(up, "node", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := ns.Hello("a")
	l2, _ := ns.Hello("b")
	var called atomic.Bool
	ns.SetCallback(l1, func(proto.SegKey) (bool, error) { return false, nil })
	ns.SetCallback(l2, func(proto.SegKey) (bool, error) { called.Store(true); return false, nil })
	seg := proto.SegKey{Area: 1, Start: 8}
	for i := 0; i < rounds; i++ {
		if _, _, _, err := ns.FetchSeg(l1, seg); err != nil {
			t.Fatal(err)
		}
		fetches := up.fetches.Load()
		called.Store(false)
		var refused bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); refused, _ = ns.onUpstreamCallback(seg) }()
		go func() { defer wg.Done(); ns.FetchSeg(l2, seg) }()
		wg.Wait()
		if hit := up.fetches.Load() == fetches; hit && !refused && !called.Load() {
			t.Fatalf("round %d: the node said it gave the segment up while a local holds its image, never called back", i)
		}
		ns.Released(l1, []proto.SegKey{seg})
		ns.Released(l2, []proto.SegKey{seg})
	}
}

// TestBatchedReleaseIsOneUpstreamCall: a local's Released names many segments;
// upstream hears once, and only of those whose last local just left.
func TestBatchedReleaseIsOneUpstreamCall(t *testing.T) {
	up := &countingUpstream{}
	ns, err := New(up, "node", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := ns.Hello("a")
	l2, _ := ns.Hello("b")
	segs := []proto.SegKey{{Area: 1, Start: 8}, {Area: 1, Start: 16}, {Area: 1, Start: 24}}
	for _, seg := range segs {
		ns.FetchSeg(l1, seg)
	}
	ns.FetchSeg(l2, segs[1])
	if err := ns.Released(l1, segs); err != nil {
		t.Fatal(err)
	}
	if n := up.releases.Load(); n != 1 {
		t.Fatalf("releasing %d segments made %d upstream calls, want 1", len(segs), n)
	}
	if want := []proto.SegKey{segs[0], segs[2]}; !reflect.DeepEqual(up.released, want) {
		t.Fatalf("upstream was told %v were released, want %v: %v is still cached by another local", up.released, want, segs[1])
	}
	if err := ns.Released(l2, segs[1:2]); err != nil {
		t.Fatal(err)
	}
	if want := segs[1:2]; up.releases.Load() != 2 || !reflect.DeepEqual(up.released, want) {
		t.Fatalf("the last local leaving: %d upstream calls naming %v, want 2 naming %v", up.releases.Load(), up.released, want)
	}
}
