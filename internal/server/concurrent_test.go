package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"bess/internal/proto"
	"bess/internal/segment"
)

// altImages builds two commit images for a fresh segment whose single object
// alternates between two payloads, so every commit logs real page changes.
func altImages(t *testing.T, s *Server, db uint32, tag string) (proto.SegKey, [2]proto.SegImage, [2][]byte) {
	t.Helper()
	fid, err := s.NewFileID(db)
	if err != nil {
		t.Fatal(err)
	}
	key, err := createSeg(s, db, fid, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	var imgs [2]proto.SegImage
	var bodies [2][]byte
	for v := 0; v < 2; v++ {
		sl, ov, data, err := s.FetchSeg(0, key)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := segment.DecodeSlotted(sl)
		if err != nil {
			t.Fatal(err)
		}
		seg.Overflow = ov
		seg.Data = data
		bodies[v] = []byte(fmt.Sprintf("%s-v%d", tag, v))
		if _, err := seg.CreateObject(0, bodies[v]); err != nil {
			t.Fatal(err)
		}
		imgs[v] = proto.SegImage{Seg: key, Slotted: seg.EncodeSlotted(), Overflow: seg.Overflow, Data: seg.Data}
	}
	return key, imgs, bodies
}

// TestConcurrentCommitStress hammers one file-backed server with N clients
// committing in parallel (run under -race), then checks the commit count,
// the drained transaction table, and a clean ARIES restart.
func TestConcurrentCommitStress(t *testing.T) {
	const clients, commitsEach = 8, 12
	dir := t.TempDir()
	s, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := s.OpenDB("stress", true)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]proto.SegKey, clients)
	imgs := make([][2]proto.SegImage, clients)
	bodies := make([][2][]byte, clients)
	conns := make([]uint32, clients)
	for c := 0; c < clients; c++ {
		keys[c], imgs[c], bodies[c] = altImages(t, s, db, fmt.Sprintf("client-%d", c))
		if conns[c], err = s.Hello(fmt.Sprintf("c%d", c)); err != nil {
			t.Fatal(err)
		}
	}

	errs := make(chan error, clients)
	txids := make([][]uint64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < commitsEach; i++ {
				txid, err := s.NewTx()
				if err != nil {
					errs <- err
					return
				}
				txids[c] = append(txids[c], txid)
				if err := s.Lock(conns[c], txid, keys[c], proto.LockX); err != nil {
					errs <- fmt.Errorf("client %d lock: %w", c, err)
					return
				}
				if err := s.Commit(conns[c], txid, []proto.SegImage{imgs[c][i%2]}); err != nil {
					errs <- fmt.Errorf("client %d commit: %w", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Snapshot()
	if st.Commits != clients*commitsEach {
		t.Fatalf("commits = %d, want %d", st.Commits, clients*commitsEach)
	}
	if st.WALSyncs == 0 || st.WALSyncs > st.WALFlushes {
		t.Fatalf("wal accounting off: syncs=%d flushes=%d", st.WALSyncs, st.WALFlushes)
	}
	for _, ids := range txids {
		for _, id := range ids {
			if s.txm.Lookup(id) != nil {
				t.Fatalf("transaction %d left in the table", id)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean ARIES restart: every segment holds exactly its client's final
	// payload (the last commit wrote i%2 == (commitsEach-1)%2).
	s2, err := Open(dir, 1)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()
	want := (commitsEach - 1) % 2
	for c := 0; c < clients; c++ {
		sl, _, data, err := s2.FetchSeg(0, keys[c])
		if err != nil {
			t.Fatal(err)
		}
		dec, err := segment.DecodeSlotted(sl)
		if err != nil {
			t.Fatal(err)
		}
		dec.Data = data
		b, err := dec.ObjectBytes(0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, bodies[c][want]) {
			t.Fatalf("client %d after restart: %q, want %q", c, b, bodies[c][want])
		}
	}
}

// TestCommitErrorForgetsTx: a failing t.Commit must still remove the txid
// from the active table (regression for the commit-path leak).
func TestCommitErrorForgetsTx(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, err := s.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	key, img := mkSegImage(t, s, db, []byte("payload"))
	c, _ := s.Hello("app")
	txid, _ := s.NewTx()
	if err := s.Lock(c, txid, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	// Closing the WAL under the server makes the first append fail (a commit
	// that logs nothing would not touch the log at all).
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(c, txid, []proto.SegImage{img}); err == nil {
		t.Fatal("commit succeeded with a closed log")
	}
	if s.txm.Lookup(txid) != nil {
		t.Fatal("failed commit leaked the transaction in the active table")
	}
}
