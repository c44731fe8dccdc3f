package server

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"bess/internal/cache"
	"bess/internal/lock"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/segment"
	"bess/internal/tx"
	"bess/internal/wal"
)

// Tests of what the proof tokens (DESIGN.md §4f) leave to run time: the zero
// value of each is refused in every build, and every reader of a segment image
// verifies it.

// readPage reads one page straight off the area.
func readPage(t *testing.T, s *Server, id page.ID) []byte {
	t.Helper()
	buf := make([]byte, page.Size)
	if err := s.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestWritePageRejectsZeroProof: the page store writes nothing on the zero
// wal.Logged, alone or in a run, and as the transaction manager's pager it
// takes a commit's stores, after the force, on the proofs the commit's
// wal.Durable makes — a logged change has no other way to the area.
func TestWritePageRejectsZeroProof(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key, err := createSeg(s, db, 1, 1, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	h := fetchHeader(t, s, key)
	pid := page.ID{Area: h.DataArea, Page: h.DataStart}
	was := readPage(t, s, pid)
	junk := bytes.Repeat([]byte{0xC3}, page.Size)
	written := s.Snapshot().PagesWritten

	if err := s.WriteRun([]wal.Logged{{}}, junk); !errors.Is(err, wal.ErrNotLogged) {
		t.Fatalf("WriteRun on the zero proof: %v, want wal.ErrNotLogged", err)
	}
	if err := s.WriteRun([]wal.Logged{{}, {}}, append(junk, junk...)); !errors.Is(err, wal.ErrNotLogged) {
		t.Fatalf("WriteRun on two zero proofs: %v, want wal.ErrNotLogged", err)
	}
	if !bytes.Equal(readPage(t, s, pid), was) || s.Snapshot().PagesWritten != written {
		t.Fatal("a store without a log record reached the area")
	}

	tr := s.txm.Begin()
	if err := tr.LogRedo(pid, was, junk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readPage(t, s, pid), was) {
		t.Fatal("a logged change reached the area before its commit")
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readPage(t, s, pid), junk) || s.Snapshot().PagesWritten != written+1 {
		t.Fatal("the commit did not store the page through the page store")
	}
}

// TestLogAndApplyRequiresStaging: no page of a shipped segment is logged
// (logShipped) or written for a transaction that did not stage the overwrite
// with the version store; the staged one is written by its commit, and not
// before.
func TestLogAndApplyRequiresStaging(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, []byte("staged or not at all"))
	pid := page.ID{Area: page.AreaID(key.Area), Page: page.No(key.Start)}
	was := readPage(t, s, pid)
	data := bytes.Repeat([]byte{0x3C}, page.Size)

	tr, other := s.txm.Begin(), s.txm.Begin()
	defer func() { _, _ = tr.Abort(), other.Abort() }()
	_, sl, ov, dt, err := s.readImage(key, secAll, s.live())
	if err != nil {
		t.Fatal(err)
	}
	foreign := s.vs.StageUpdate(other.ID(), vkeyOf(key), cache.VImage{Slotted: sl, Overflow: ov, Data: dt})
	end := s.log.NextLSN()
	for name, staged := range map[string]cache.Staged{"zero": {}, "another transaction's": foreign} {
		if err := s.logShipped(tr, staged, key, nil, data, nil); !errors.Is(err, ErrNotStaged) {
			t.Fatalf("logShipped on %s Staged: %v, want ErrNotStaged", name, err)
		}
	}
	if s.log.NextLSN() != end || !bytes.Equal(readPage(t, s, pid), was) {
		t.Fatal("an unstaged overwrite was logged or written")
	}
	if err := s.logShipped(other, foreign, key, nil, data, nil); err != nil {
		t.Fatalf("logShipped on the transaction's own Staged: %v", err)
	}
	if !bytes.Equal(readPage(t, s, pid), was) {
		t.Fatal("a shipped overwrite reached the area before its commit")
	}
	if err := other.Commit(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readPage(t, s, pid), data) {
		t.Fatal("a staged overwrite did not reach the area at its commit")
	}
}

// TestEveryReadPathVerifies flips a byte on disk under each consumer of
// readImage: every one of them must notice (the corruption counter moves) and,
// the history being in the log, serve the repaired bytes. Each first waits out
// the write-back of a commit published and still writing the segment's pages
// (cache.VersionStore.Landed), as every read must.
func TestEveryReadPathVerifies(t *testing.T) {
	body := []byte("verified wherever it is read")
	wantBody := func(t *testing.T, sl, ov, data []byte) {
		t.Helper()
		if b, err := decodeSeg(t, sl, ov, data).ObjectBytes(0); err != nil || !bytes.Equal(b, body) {
			t.Fatalf("object after rot = %q, %v", b, err)
		}
	}
	type target int
	const (
		slotted target = iota
		data
	)
	cases := []struct {
		name string
		rot  target
		read func(t *testing.T, s *Server, cl uint32, snap uint64, key proto.SegKey)
	}{
		{"FetchSeg of a rotted slotted page", slotted, func(t *testing.T, s *Server, _ uint32, _ uint64, key proto.SegKey) {
			sl, ov, d, err := s.FetchSeg(0, key)
			if err != nil {
				t.Fatal(err)
			}
			wantBody(t, sl, ov, d)
		}},
		{"FetchSeg", data, func(t *testing.T, s *Server, _ uint32, _ uint64, key proto.SegKey) {
			sl, ov, d, err := s.FetchSeg(0, key)
			if err != nil {
				t.Fatal(err)
			}
			wantBody(t, sl, ov, d)
		}},
		{"SnapFetchSeg", data, func(t *testing.T, s *Server, cl uint32, snap uint64, key proto.SegKey) {
			sl, ov, d, err := s.SnapFetchSeg(cl, snap, key)
			if err != nil {
				t.Fatal(err)
			}
			wantBody(t, sl, ov, d)
		}},
		{"StreamScan", data, func(t *testing.T, s *Server, cl uint32, _ uint64, key proto.SegKey) {
			cEnd, sEnd := rpc.Pipe()
			defer cEnd.Close()
			ServePeer(s, sEnd)
			cli := newScanClient(cEnd)
			var started proto.ScanStartReply
			if err := rpc.Call(cEnd, proto.MethodScanStart, &proto.ScanStartArgs{Client: cl, DB: 1, FileID: 1, BatchBytes: 64 << 10}, &started); err != nil {
				t.Fatal(err)
			}
			if err := rpc.SendStream(cEnd, proto.StreamScanCtl, started.Scan, &proto.ScanCtl{Credit: 1 << 20}); err != nil {
				t.Fatal(err)
			}
			seen := false
			for _, sb := range cli.wait(t) {
				if sb.Err != "" {
					t.Fatalf("scan batch carries error %q", sb.Err)
				}
				for _, im := range sb.Images {
					if im.Seg == key {
						wantBody(t, im.Slotted, im.Overflow, im.Data)
						seen = true
					}
				}
			}
			if !seen {
				t.Fatal("the scan never pushed the segment")
			}
		}},
		{"ScrubOnce", data, func(t *testing.T, s *Server, _ uint32, _ uint64, _ proto.SegKey) {
			if _, err := s.ScrubOnce(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewMem(1)
			defer s.Close()
			db, _, _ := s.OpenDB("d", true)
			key := commitOne(t, s, db, body)
			cl, _ := s.Hello("reader")
			snap, _, err := s.SnapOpen(cl)
			if err != nil {
				t.Fatal(err)
			}
			sl, ov, _, err := s.FetchSeg(0, key)
			if err != nil {
				t.Fatal(err)
			}
			dec := decodeSeg(t, sl, ov, nil)
			switch c.rot {
			case slotted:
				flipPageByte(t, s, key.Area, page.No(key.Start), segment.HeaderSize+3)
			case data:
				flipPageByte(t, s, uint32(dec.Hdr.DataArea), dec.Hdr.DataStart, 5)
			}
			before := s.ScrubStatus()
			const writer = 1 << 40 // a commit published and still writing the segment
			s.vs.StageWrite(writer, vkeyOf(key))
			s.vs.CommitTx(writer, s.live())
			waited := make(chan bool, 1)
			go func() {
				defer s.vs.Landed(writer)
				for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
					if s.Snapshot().WriteBackWaits > 0 {
						waited <- true
						return
					}
				}
				waited <- false
			}()
			c.read(t, s, cl, snap, key)
			if !<-waited {
				t.Fatal("the read did not wait out the write-back pending on its segment")
			}
			if st := s.ScrubStatus(); st.CorruptionsFound != before.CorruptionsFound+1 || st.Repaired != before.Repaired+1 || st.Quarantined != 0 {
				t.Fatalf("counters %+v, before the read %+v: the flipped byte went unnoticed or unrepaired", st, before)
			}
		})
	}
}

// TestReaderCannotReachLocks is what is left of bess-vet's lockfree analyzer:
// no value a method on *reader can name — its fields, and whatever they point
// to — is the lock manager (which holds the cached copies too), the
// transaction table, or the Server that owns them. A snapshot read therefore takes no lock-manager lock
// because there is none in its world; adding one to reader fails here.
func TestReaderCannotReachLocks(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf(lock.Manager{}): true,
		reflect.TypeOf(tx.Manager{}):   true,
		reflect.TypeOf(Server{}):       true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		if banned[ty] {
			t.Errorf("reader reaches %v through %s", ty, path)
			return
		}
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Map:
			walk(ty.Key(), path+"[key]")
			walk(ty.Elem(), path+"[]")
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(ty.Elem(), path)
		}
	}
	walk(reflect.TypeOf(reader{}), "reader")
	if !seen[reflect.TypeOf(cache.VersionStore{})] {
		t.Fatal("walk never reached the version store: it is not looking through reader's fields")
	}
}
