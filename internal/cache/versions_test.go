package cache

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"bess/internal/page"
)

// owner is the client the test stores' snapshots belong to.
const owner = 1

// newStore returns a store with a snapshot open at stamp 0, pin, so nothing
// is trimmed until the test closes it.
func newStore(t *testing.T) (vs *VersionStore, pin uint64) {
	t.Helper()
	vs = NewVersionStore(0)
	pin, _ = vs.Open(owner)
	return vs, pin
}

// closeSnap closes owner's snapshot id.
func closeSnap(t *testing.T, vs *VersionStore, id uint64) {
	t.Helper()
	if err := vs.Close(owner, id); err != nil {
		t.Fatal(err)
	}
}

func sameImage(a, b VImage) bool {
	return bytes.Equal(a.Slotted, b.Slotted) && bytes.Equal(a.Overflow, b.Overflow) && bytes.Equal(a.Data, b.Data)
}

func image(tag byte) VImage {
	return VImage{Slotted: bytes.Repeat([]byte{tag}, 8), Overflow: []byte{tag}, Data: bytes.Repeat([]byte{tag}, 16)}
}

// update runs one update of key: the image tagged old is superseded at stamp,
// and the commit's pages are written.
func update(vs *VersionStore, tx uint64, key VKey, old byte, stamp page.LSN) {
	vs.StageUpdate(tx, key, image(old))
	vs.CommitTx(tx, stamp)
	vs.Landed(tx)
}

func TestAsOfOutcomes(t *testing.T) {
	key := VKey{Area: 1, Start: 7}
	for _, tc := range []struct {
		name    string
		prepare func(vs *VersionStore, pin uint64)
		at      page.LSN
		hit     byte // tag of the chain image served; 0 = none
		miss    bool
		count   func(VStats) int64
	}{
		{
			name: "chain hit",
			prepare: func(vs *VersionStore, _ uint64) {
				update(vs, 1, key, 'a', 10) // 'a' valid in [0, 10)
				update(vs, 2, key, 'b', 20) // 'b' valid in [10, 20)
			},
			at: 15, hit: 'b',
			count: func(s VStats) int64 { return s.ChainHits },
		},
		{
			name:    "current disk image",
			prepare: func(vs *VersionStore, _ uint64) { update(vs, 1, key, 'a', 10) },
			at:      10,
			count:   func(s VStats) int64 { return s.DiskReads },
		},
		{
			// The snapshot at 0 closed and the watermark passed it: a read
			// at 5 that raced the close misses — typed, counted, and below
			// the floor, so not an invariant violation (no panic).
			name: "trimmed",
			prepare: func(vs *VersionStore, pin uint64) {
				update(vs, 1, key, 'a', 10)
				closeSnap(t, vs, pin)
			},
			at: 5, miss: true,
			count: func(s VStats) int64 { return s.Trimmed },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vs, pin := newStore(t)
			tc.prepare(vs, pin)
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
	vs, pin := newStore(t)
	update(vs, 1, key, 'a', 10)
	vs.CommitTx(2, 15) // a commit that staged nothing moves the clock alone
	at15, stamp := vs.Open(owner)
	if stamp != 15 {
		t.Fatalf("snapshot opened at %d, want the clock's 15", stamp)
	}
	update(vs, 3, key, 'b', 20)
	update(vs, 4, other, 'c', 30)
	one := image('a')
	size := int64(3 * one.size())
	if st := vs.VersionStats(); st.Entries != 3 || st.Bytes != size || st.Trims != 0 {
		t.Fatalf("before any close: %+v", st)
	}

	// The snapshot at 15 still reads 'b' [10,20) and 'c' [0,30); once the
	// one at 0 closes, 'a' [0,10) is below every open snapshot.
	closeSnap(t, vs, pin)
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
	closeSnap(t, vs, at15)
	if st := vs.VersionStats(); st.Entries != 0 || st.Bytes != 0 || st.Trims != 3 {
		t.Fatalf("trim with no snapshot: %+v", st)
	}
}

// TestCloseIsTheOwners: a snapshot closes only for the client that opened
// it; another client's close is refused and leaves it open, an id that is
// not open closes as a no-op, and a departing client's CloseOwner closes
// every snapshot it had and no other.
func TestCloseIsTheOwners(t *testing.T) {
	key := VKey{Area: 1, Start: 7}
	vs, pin := newStore(t)
	update(vs, 1, key, 'a', 10)
	if err := vs.Close(owner+1, pin); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("another client's close: %v, want ErrNotOwner", err)
	}
	if _, err := vs.Stamp(pin); err != nil {
		t.Fatalf("a refused close closed the snapshot: %v", err)
	}
	if st := vs.VersionStats(); st.Entries != 1 {
		t.Fatalf("a refused close trimmed: %+v", st)
	}
	if err := vs.Close(owner, 99); err != nil {
		t.Fatalf("closing an id that is not open: %v", err)
	}

	second, _ := vs.Open(owner)
	theirs, _ := vs.Open(owner + 1)
	update(vs, 2, key, 'b', 20)
	vs.CloseOwner(owner)
	for _, id := range []uint64{pin, second} {
		if _, err := vs.Stamp(id); err == nil {
			t.Fatalf("snapshot %d outlived its owner", id)
		}
	}
	if _, err := vs.Stamp(theirs); err != nil {
		t.Fatalf("another client's snapshot closed with the owner's: %v", err)
	}
	// theirs, at 10, still reads 'b' [10,20); 'a' [0,10) is gone.
	if st := vs.VersionStats(); st.Entries != 1 || st.Trims != 1 {
		t.Fatalf("after the owner left: %+v", st)
	}
	vs.CloseOwner(owner + 1)
	if st := vs.VersionStats(); st.Entries != 0 {
		t.Fatalf("after every owner left: %+v", st)
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
	vs.Landed(1)
	if !vs.Recheck(key, 10) {
		t.Fatal("both stages were not released once the commit was written")
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
	vs.Landed(1)
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
	vs, pin := newStore(t)
	update(vs, 1, key, 1, 10)
	img, hit, err := vs.AsOf(key, 5)
	if !hit || err != nil {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	want := VImage{bytes.Clone(img.Slotted), bytes.Clone(img.Overflow), bytes.Clone(img.Data)}

	for i := 2; i <= 16; i++ {
		update(vs, uint64(i), key, byte(i), page.LSN(10*i))
	}
	closeSnap(t, vs, pin) // the snapshot at 0 closes: everything goes
	if st := vs.VersionStats(); st.Entries != 0 {
		t.Fatalf("entries left: %+v", st)
	}
	var miss *VersionMiss
	if _, _, err := vs.AsOf(key, 5); !errors.As(err, &miss) {
		t.Fatalf("evicted version still served: %v", err)
	}
	vs.Open(owner)                  // a snapshot at 160 keeps what commits after it
	update(vs, 99, key, 0xEE, 1000) // new captures reuse the chain's slots
	if !sameImage(img, want) {
		t.Fatal("an image handed out by AsOf changed when its chain entry was evicted")
	}
}

// TestReadsWaitForTheWriteBack: a commit is published before it writes its
// pages. Until Landed, a snapshot read at or above its stamp waits in AsOf and
// a live read in WaitWritten, while one below its stamp takes the chain and a
// live read of a segment staged but not committed does not wait; WaitLanded
// waits for the commits writing. A segment staged with StageWrite joins the
// wait without a chain entry or a new stamp.
func TestReadsWaitForTheWriteBack(t *testing.T) {
	key, fresh := VKey{Area: 1, Start: 7}, VKey{Area: 1, Start: 9}
	vs, _ := newStore(t)
	update(vs, 1, key, 'a', 10)
	vs.StageUpdate(2, key, image('b'))
	vs.StageWrite(2, fresh)
	if !vs.HasStaged(2) || vs.HasStaged(1) {
		t.Fatal("HasStaged does not name the transaction staging")
	}
	vs.WaitWritten(key) // staged, not committed: the disk holds the last commit
	vs.CommitTx(2, 20)
	if img, hit, err := vs.AsOf(key, 15); !hit || err != nil || img.Slotted[0] != 'b' {
		t.Fatalf("as of 15, below the commit: %q hit=%v err=%v, want the chain's 'b'", img.Slotted, hit, err)
	}
	done := make(chan string, 4)
	go func() { vs.WaitWritten(key); done <- "live read" }()
	go func() { vs.WaitWritten(fresh); done <- "live read of the created segment" }()
	go func() {
		_, hit, err := vs.AsOf(key, 20)
		done <- fmt.Sprintf("snapshot read at the commit (hit=%v err=%v)", hit, err)
	}()
	go func() { vs.WaitLanded(); done <- "WaitLanded" }()
	for deadline := time.Now().Add(5 * time.Second); vs.VersionStats().Written < 3; time.Sleep(time.Millisecond) {
		select {
		case r := <-done:
			t.Fatalf("%s returned before the write-back ended", r)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%+v: the reads did not wait", vs.VersionStats())
		}
	}
	vs.Landed(2)
	for range 4 {
		select {
		case r := <-done:
			if strings.HasPrefix(r, "snapshot") && r != "snapshot read at the commit (hit=false err=<nil>)" {
				t.Fatal(r)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a wait outlasted the write-back it waited for")
		}
	}
	if _, hit, err := vs.AsOf(fresh, 5); hit || err != nil {
		t.Fatalf("the created segment: hit=%v err=%v, want the disk image at every stamp", hit, err)
	}
	if st := vs.VersionStats(); st.Captures != 2 {
		t.Fatalf("%d captures, want 2: StageWrite adds none", st.Captures)
	}
	if !vs.Recheck(key, 20) || !vs.Recheck(fresh, 20) {
		t.Fatal("a segment stays staged after its commit was written")
	}
}
