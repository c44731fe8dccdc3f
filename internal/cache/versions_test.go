package cache

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"bess/internal/page"
)

// watermark is the snapshot registry a test store trims against: the oldest
// open snapshot's stamp, or none open.
type watermark struct{ stamp atomic.Int64 } // <0: no snapshot open

func (w *watermark) oldest() (page.LSN, bool) {
	s := w.stamp.Load()
	return page.LSN(max(s, 0)), s >= 0
}

// newStore returns a store whose watermark starts at an open snapshot at
// stamp 0, so nothing is trimmed until the test says so.
func newStore(t *testing.T) (*VersionStore, *watermark) {
	t.Helper()
	w := &watermark{}
	vs := NewVersionStore(w.oldest)
	t.Cleanup(vs.Close)
	return vs, w
}

func sameImage(a, b VImage) bool {
	return bytes.Equal(a.Slotted, b.Slotted) && bytes.Equal(a.Overflow, b.Overflow) && bytes.Equal(a.Data, b.Data)
}

func image(tag byte) VImage {
	return VImage{Slotted: bytes.Repeat([]byte{tag}, 8), Overflow: []byte{tag}, Data: bytes.Repeat([]byte{tag}, 16)}
}

// update runs one captured update of key: the image tagged old is superseded
// at stamp.
func update(vs *VersionStore, tx uint64, key VKey, old byte, stamp page.LSN) {
	vs.StageUpdate(tx, key, image(old), true)
	vs.CommitTx(tx, stamp)
}

func TestAsOfOutcomes(t *testing.T) {
	key := VKey{Area: 1, Start: 7}
	for _, tc := range []struct {
		name    string
		prepare func(vs *VersionStore, w *watermark)
		at      page.LSN
		hit     byte // tag of the chain image served; 0 = none
		err     error
		count   func(VStats) int64
	}{
		{
			name: "chain hit",
			prepare: func(vs *VersionStore, _ *watermark) {
				update(vs, 1, key, 'a', 10) // 'a' valid in [0, 10)
				update(vs, 2, key, 'b', 20) // 'b' valid in [10, 20)
			},
			at: 15, hit: 'b',
			count: func(s VStats) int64 { return s.ChainHits },
		},
		{
			name:    "current disk image",
			prepare: func(vs *VersionStore, _ *watermark) { update(vs, 1, key, 'a', 10) },
			at:      10,
			count:   func(s VStats) int64 { return s.DiskReads },
		},
		{
			name: "trimmed",
			prepare: func(vs *VersionStore, w *watermark) {
				update(vs, 1, key, 'a', 10)
				w.stamp.Store(-1)
				vs.Trim()
			},
			at: 5, err: ErrTrimmed,
			count: func(s VStats) int64 { return s.Trimmed },
		},
		{
			name: "never captured",
			prepare: func(vs *VersionStore, _ *watermark) {
				vs.StageUpdate(1, key, VImage{}, false)
				vs.CommitTx(1, 10)
			},
			at: 5, err: ErrTrimmed,
			count: func(s VStats) int64 { return s.Trimmed },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vs, w := newStore(t)
			tc.prepare(vs, w)
			img, hit, err := vs.AsOf(key, tc.at)
			if !errors.Is(err, tc.err) || (err == nil) != (tc.err == nil) {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			if hit != (tc.hit != 0) {
				t.Fatalf("hit = %v", hit)
			}
			if hit && !sameImage(img, image(tc.hit)) {
				t.Fatalf("served %q, want the %q image", img.Slotted, tc.hit)
			}
			if n := tc.count(vs.VersionStats()); n != 1 {
				t.Fatalf("outcome counted %d times: %+v", n, vs.VersionStats())
			}
		})
	}
}

// A disk verdict is not given while an update is overwriting the pages: AsOf
// waits for the writer to commit or abort, then answers for what it left.
func TestAsOfWaitsWhileStaged(t *testing.T) {
	key := VKey{Area: 1, Start: 7}
	for _, commit := range []bool{true, false} {
		vs, _ := newStore(t)
		vs.StageUpdate(1, key, image('a'), true)
		type res struct {
			img VImage
			hit bool
			err error
		}
		done := make(chan res, 1)
		go func() {
			img, hit, err := vs.AsOf(key, 5)
			done <- res{img, hit, err}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for vs.VersionStats().Waits == 0 {
			if time.Now().After(deadline) {
				t.Fatal("AsOf never waited on the staged segment")
			}
			select {
			case r := <-done:
				t.Fatalf("AsOf answered %+v under a staged update", r)
			case <-time.After(time.Millisecond):
			}
		}
		if commit {
			vs.CommitTx(1, 10)
		} else {
			vs.AbortTx(1)
		}
		r := <-done
		if r.err != nil || r.hit != commit {
			t.Fatalf("commit=%v: after the wait hit=%v err=%v", commit, r.hit, r.err)
		}
		if commit && r.img.Slotted[0] != 'a' {
			t.Fatalf("served %q, want the superseded image", r.img.Slotted)
		}
	}
}

func TestTrimAtWatermark(t *testing.T) {
	key, other := VKey{Area: 1, Start: 7}, VKey{Area: 1, Start: 9}
	vs, w := newStore(t)
	update(vs, 1, key, 'a', 10)
	update(vs, 2, key, 'b', 20)
	update(vs, 3, other, 'c', 30)
	one := image('a')
	size := int64(3 * one.size())
	if st := vs.VersionStats(); st.Entries != 3 || st.Bytes != size {
		t.Fatalf("before trim: %+v", st)
	}

	// A snapshot at 15 still reads 'b' [10,20) and 'c' [0,30); 'a' [0,10) is
	// below every open snapshot.
	w.stamp.Store(15)
	vs.Trim()
	if st := vs.VersionStats(); st.Entries != 2 || st.Trims != 1 || st.Bytes != size*2/3 {
		t.Fatalf("trim at 15: %+v", st)
	}
	if _, hit, _ := vs.AsOf(key, 15); !hit {
		t.Fatal("trim at the watermark dropped a version the open snapshot reads")
	}
	if _, _, err := vs.AsOf(key, 5); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("version below the watermark still served: %v", err)
	}

	// No snapshot open: nothing can be asked for, everything goes.
	w.stamp.Store(-1)
	vs.Trim()
	if st := vs.VersionStats(); st.Entries != 0 || st.Bytes != 0 || st.Trims != 3 {
		t.Fatalf("trim with no snapshot: %+v", st)
	}
}

func TestPerSegmentCap(t *testing.T) {
	key := VKey{Area: 1, Start: 7}
	vs, _ := newStore(t)
	const extra = 3
	for i := 1; i <= defaultMaxVersions+extra; i++ {
		update(vs, uint64(i), key, byte(i), page.LSN(10*i)) // image i valid in [10(i-1), 10i)
	}
	if st := vs.VersionStats(); st.Entries != defaultMaxVersions || st.Trims != extra {
		t.Fatalf("cap: %+v", st)
	}
	if _, _, err := vs.AsOf(key, 10*extra-5); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("oldest version survived the cap: %v", err)
	}
	if img, hit, _ := vs.AsOf(key, 10*extra+5); !hit || img.Slotted[0] != extra+1 {
		t.Fatalf("oldest kept version: hit=%v img=%v", hit, img.Slotted)
	}
}

// Recheck is the second half of the disk verdict: an update that staged (or
// committed) while the caller was reading the disk invalidates the read.
func TestRecheckAfterRacingStage(t *testing.T) {
	key := VKey{Area: 1, Start: 7}
	vs, _ := newStore(t)
	if _, hit, err := vs.AsOf(key, 5); hit || err != nil {
		t.Fatalf("untouched segment: hit=%v err=%v", hit, err)
	}
	if !vs.Recheck(key, 5) {
		t.Fatal("recheck failed with no writer")
	}
	vs.StageUpdate(1, key, image('a'), true) // races the caller's disk read
	if vs.Recheck(key, 5) {
		t.Fatal("recheck passed under a staged update")
	}
	vs.CommitTx(1, 10)
	if vs.Recheck(key, 5) {
		t.Fatal("recheck passed after a commit above the stamp")
	}
	if img, hit, _ := vs.AsOf(key, 5); !hit || img.Slotted[0] != 'a' {
		t.Fatalf("retry after the failed recheck: hit=%v", hit)
	}
	vs.StageUpdate(2, key, image('b'), true)
	vs.AbortTx(2)
	if !vs.Recheck(key, 10) {
		t.Fatal("an aborted update still fails the recheck")
	}
}

// TestAsOfImageOutlivesEviction is what the version pin stood for: an image a
// reply holds stays what it was when the cap and the watermark drop its chain
// entry — eviction lets go of a reference, not of the bytes.
func TestAsOfImageOutlivesEviction(t *testing.T) {
	key := VKey{Area: 1, Start: 7}
	vs, w := newStore(t)
	update(vs, 1, key, 1, 10)
	img, hit, err := vs.AsOf(key, 5)
	if !hit || err != nil {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	want := cloneImage(img)

	for i := 2; i <= 2*defaultMaxVersions; i++ { // push it out by the cap...
		update(vs, uint64(i), key, byte(i), page.LSN(10*i))
	}
	w.stamp.Store(-1) // ...and everything else by the watermark
	vs.Trim()
	if st := vs.VersionStats(); st.Entries != 0 {
		t.Fatalf("entries left: %+v", st)
	}
	if _, _, err := vs.AsOf(key, 5); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("evicted version still served: %v", err)
	}
	update(vs, 99, key, 0xEE, 1000) // new captures reuse the chain's slots
	if !sameImage(img, want) {
		t.Fatal("an image handed out by AsOf changed when its chain entry was evicted")
	}
}
