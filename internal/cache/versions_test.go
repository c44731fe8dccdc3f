package cache

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"bess/internal/page"
)

// watermark is the horizon a test store reclaims at: an open snapshot's stamp
// while one is open, past every commit (none) once the test stores none.
type watermark struct{ stamp atomic.Uint64 }

// none is a watermark past every stamp a test commits at: no snapshot open.
const none = 1 << 40

func (w *watermark) get() page.LSN { return page.LSN(w.stamp.Load()) }

// newStore returns a store whose watermark starts at an open snapshot at
// stamp 0, so nothing is trimmed until the test says so.
func newStore(t *testing.T) (*VersionStore, *watermark) {
	t.Helper()
	w := &watermark{}
	vs := NewVersionStore(w.get)
	t.Cleanup(vs.Close)
	return vs, w
}

func sameImage(a, b VImage) bool {
	return bytes.Equal(a.Slotted, b.Slotted) && bytes.Equal(a.Overflow, b.Overflow) && bytes.Equal(a.Data, b.Data)
}

func image(tag byte) VImage {
	return VImage{Slotted: bytes.Repeat([]byte{tag}, 8), Overflow: []byte{tag}, Data: bytes.Repeat([]byte{tag}, 16)}
}

// update runs one update of key: the image tagged old is superseded at stamp.
func update(vs *VersionStore, tx uint64, key VKey, old byte, stamp page.LSN) {
	vs.StageUpdate(tx, key, image(old))
	vs.CommitTx(tx, stamp)
}

func TestAsOfOutcomes(t *testing.T) {
	key := VKey{Area: 1, Start: 7}
	for _, tc := range []struct {
		name    string
		prepare func(vs *VersionStore, w *watermark)
		at      page.LSN
		hit     byte // tag of the chain image served; 0 = none
		miss    bool
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
			// The snapshot at 5 closed and the watermark passed it: a read
			// that raced the close misses — typed, counted, and below the
			// floor, so not an invariant violation (no panic).
			name: "trimmed",
			prepare: func(vs *VersionStore, w *watermark) {
				update(vs, 1, key, 'a', 10)
				w.stamp.Store(none)
				vs.Trim()
			},
			at: 5, miss: true,
			count: func(s VStats) int64 { return s.Trimmed },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vs, w := newStore(t)
			tc.prepare(vs, w)
			img, hit, err := vs.AsOf(key, tc.at)
			var miss *VersionMiss
			if errors.As(err, &miss) != tc.miss || (err != nil && !tc.miss) {
				t.Fatalf("err = %v, want a miss: %v", err, tc.miss)
			}
			if tc.miss && (miss.At != tc.at || miss.Floor <= tc.at) {
				t.Fatalf("miss %+v: not below the floor", miss)
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
		vs.StageUpdate(1, key, image('a'))
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
	var miss *VersionMiss
	if _, _, err := vs.AsOf(key, 5); !errors.As(err, &miss) {
		t.Fatalf("version below the watermark still served: %v", err)
	}

	// No snapshot open: nothing can be asked for, everything goes.
	w.stamp.Store(none)
	vs.Trim()
	if st := vs.VersionStats(); st.Entries != 0 || st.Bytes != 0 || st.Trims != 3 {
		t.Fatalf("trim with no snapshot: %+v", st)
	}
}

// TestStageTwiceKeepsCommittedImage: a transaction that stages a segment a
// second time hands over an image of its own uncommitted write; the chain
// keeps the first, the committed pre-update image, and only that.
func TestStageTwiceKeepsCommittedImage(t *testing.T) {
	key := VKey{Area: 1, Start: 7}
	vs, _ := newStore(t)
	vs.StageUpdate(1, key, image('a'))
	vs.StageUpdate(1, key, image('x'))
	vs.CommitTx(1, 10)
	if img, hit, err := vs.AsOf(key, 5); !hit || err != nil || !sameImage(img, image('a')) {
		t.Fatalf("as of 5: %q hit=%v err=%v, want the committed 'a'", img.Slotted, hit, err)
	}
	if st := vs.VersionStats(); st.Entries != 1 || st.Captures != 1 {
		t.Fatalf("%+v", st)
	}
	if !vs.Recheck(key, 10) {
		t.Fatal("both stages were not released at commit")
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
	vs.StageUpdate(1, key, image('a')) // races the caller's disk read
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
	vs.StageUpdate(2, key, image('b'))
	vs.AbortTx(2)
	if !vs.Recheck(key, 10) {
		t.Fatal("an aborted update still fails the recheck")
	}
}

// TestAsOfImageOutlivesEviction is what the version pin stood for: an image a
// reply holds stays what it was when the watermark drops its chain entry —
// eviction lets go of a reference, not of the bytes.
func TestAsOfImageOutlivesEviction(t *testing.T) {
	key := VKey{Area: 1, Start: 7}
	vs, w := newStore(t)
	update(vs, 1, key, 1, 10)
	img, hit, err := vs.AsOf(key, 5)
	if !hit || err != nil {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	want := VImage{bytes.Clone(img.Slotted), bytes.Clone(img.Overflow), bytes.Clone(img.Data)}

	for i := 2; i <= 16; i++ {
		update(vs, uint64(i), key, byte(i), page.LSN(10*i))
	}
	w.stamp.Store(200) // the snapshot at 5 closes: everything before 200 goes
	vs.Trim()
	if st := vs.VersionStats(); st.Entries != 0 {
		t.Fatalf("entries left: %+v", st)
	}
	var miss *VersionMiss
	if _, _, err := vs.AsOf(key, 5); !errors.As(err, &miss) {
		t.Fatalf("evicted version still served: %v", err)
	}
	w.stamp.Store(300)
	update(vs, 99, key, 0xEE, 1000) // new captures reuse the chain's slots
	if !sameImage(img, want) {
		t.Fatal("an image handed out by AsOf changed when its chain entry was evicted")
	}
}
