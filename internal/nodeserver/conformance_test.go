package nodeserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"bess/internal/lock"
	"bess/internal/proto"
	"bess/internal/segment"
	"bess/internal/server"
)

// TestCallbackConformance holds a server, a node server, and the two together
// to the one invariant callback locking exists for (DESIGN.md §9): a segment
// cached dirty at one client is never cached at another. The body is the same
// for all three — the protocol is the same at both tiers.
func TestCallbackConformance(t *testing.T) {
	setup := func(t *testing.T) (*server.Server, *NodeServer) {
		srv, ns := env(t)
		srv.SetLockTimeout(confWait)
		ns.SetLockTimeout(confWait)
		return srv, ns
	}
	t.Run("server", func(t *testing.T) {
		srv, _ := setup(t)
		callbackConformance(t, []proto.Conn{srv}, 1)
	})
	t.Run("node", func(t *testing.T) {
		_, ns := setup(t)
		callbackConformance(t, []proto.Conn{ns}, 2)
	})
	t.Run("node beside direct clients", func(t *testing.T) {
		srv, ns := setup(t)
		callbackConformance(t, []proto.Conn{ns, srv, ns}, 3)
	})
}

// confWait is each tier's lock timeout in TestCallbackConformance.
const confWait = 40 * time.Millisecond

// isLockErr recognises a lock manager's typed error at either tier, also
// after it crossed the wire between them as text.
func isLockErr(err, want error) bool {
	return errors.Is(err, want) || (err != nil && strings.Contains(err.Error(), want.Error()))
}

// confClient is one bare client of a Conn and the shadow model's view of it.
// The callback runs on whatever goroutine the Conn delivers it on, so the
// model is under mu.
type confClient struct {
	conn    proto.Conn
	id      uint32
	cached  map[proto.SegKey]bool // fetched, and not given up since
	busy    map[proto.SegKey]bool // a transaction of this client is reading its copy
	refused map[proto.SegKey]bool // called back while busy: given up, with Released, when it stops
}

// callbackConformance drives clients spread over conns through a seeded random
// history of fetches, reads that pin a copy, voluntary releases and writes,
// against a shadow model, and checks at every step: a write is granted exactly
// when no other client is using a copy, and then no other client has one; a
// write blocked by a copy in use fails with the lock timeout; and every
// fetch, by anyone, through any tier, returns the last committed value — also
// one made while another client's transaction holds X on the segment, which
// waits for that transaction to end. A reader that refuses a writer's
// callback and then asks for a read lock behind that writer's X closes a
// cycle, which fails the reader's request with ErrDeadlock at once (item 15).
// A client keeps the contract of proto.Conn.SetCallback: a copy it refused to
// give up while busy it gives up, with Released, when it stops being busy.
func callbackConformance(t *testing.T, conns []proto.Conn, seed int64) {
	const nClients, nSegs, steps = 5, 3, 160
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	clients := make([]*confClient, nClients)
	for i := range clients {
		c := &confClient{conn: conns[i%len(conns)], cached: map[proto.SegKey]bool{}, busy: map[proto.SegKey]bool{}, refused: map[proto.SegKey]bool{}}
		id, err := c.conn.Hello("conformance")
		if err != nil {
			t.Fatal(err)
		}
		c.id = id
		err = c.conn.SetCallback(id, func(seg proto.SegKey) (bool, error) {
			mu.Lock()
			defer mu.Unlock()
			if c.busy[seg] {
				c.refused[seg] = true
				return true, nil
			}
			c.cached[seg] = false
			return false, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	db, _, err := conns[0].OpenDB("conformance", true)
	if err != nil {
		t.Fatal(err)
	}
	segs := make([]proto.SegKey, nSegs)
	committed := make(map[proto.SegKey]uint64) // the model's disk
	for i := range segs {
		// Each segment is created by a different client, through whatever tier
		// it sits behind: of runs reserved to it, published by a commit. The
		// creator can build the image without fetching it, so it holds a copy
		// from the publish on: the model says so, and a tier that forgot to
		// record it would let the first other writer through below with the
		// creator never called back.
		c := clients[i%nClients]
		segs[i] = publishSeg(t, c.conn, c.id, db)
		c.cached[segs[i]] = true
	}

	// read fetches seg for c into its cache and decodes the value.
	read := func(c *confClient, seg proto.SegKey) (*segment.Seg, uint64, error) {
		sl, ov, data, err := c.conn.FetchSeg(c.id, seg)
		if err != nil {
			return nil, 0, err
		}
		dec := decodeFetched(t, sl, ov, data)
		var got uint64
		if dec.Live(0) {
			b, err := dec.ObjectBytes(0)
			if err != nil {
				return nil, 0, err
			}
			got = binary.BigEndian.Uint64(b)
		}
		mu.Lock()
		c.cached[seg] = true
		mu.Unlock()
		return dec, got, nil
	}
	// fetch is a client reading seg into its cache; whatever tier serves it,
	// the image must be the committed one.
	fetch := func(at string, c *confClient, seg proto.SegKey) *segment.Seg {
		t.Helper()
		dec, got, err := read(c, seg)
		if err != nil {
			t.Fatalf("%s: fetch: %v", at, err)
		}
		if got != committed[seg] {
			t.Fatalf("%s: fetched value %d, last committed is %d: a stale copy was served", at, got, committed[seg])
		}
		return dec
	}
	// idleSeg reports whether no client's transaction is reading seg.
	idleSeg := func(seg proto.SegKey) bool {
		mu.Lock()
		defer mu.Unlock()
		for _, o := range clients {
			if o.busy[seg] {
				return false
			}
		}
		return true
	}
	// commit writes the next value into dec, c's image of seg, under txid,
	// which holds X on it.
	commit := func(at string, c *confClient, txid uint64, seg proto.SegKey, dec *segment.Seg) {
		t.Helper()
		var v [8]byte
		binary.BigEndian.PutUint64(v[:], committed[seg]+1)
		var err error
		if dec.Live(0) {
			err = dec.UpdateObject(0, v[:])
		} else {
			_, err = dec.CreateObject(0, v[:])
		}
		if err != nil {
			t.Fatal(err)
		}
		img := proto.SegImage{Seg: seg, Slotted: dec.EncodeSlotted(), Overflow: dec.Overflow, Data: dec.Data}
		if err := c.conn.Publish(c.id, txid, nil, []proto.SegImage{img}, false); err != nil {
			t.Fatalf("%s: commit: %v", at, err)
		}
		committed[seg]++
	}
	// other picks a client other than c.
	other := func(c *confClient) *confClient {
		for {
			if o := clients[rng.Intn(nClients)]; o != c {
				return o
			}
		}
	}

	for step := 0; step < steps; step++ {
		ci := rng.Intn(nClients)
		c, seg := clients[ci], segs[rng.Intn(nSegs)]
		at := func(op string) string { return fmt.Sprintf("step %d (%s by client %d)", step, op, ci) }
		switch op := rng.Intn(12); {
		case op < 3:
			fetch(at("fetch"), c, seg)
		case op < 5: // a transaction starts or stops reading the cached copy
			mu.Lock()
			owed := false
			if c.busy[seg] {
				c.busy[seg] = false
				owed = c.refused[seg]
				if owed {
					c.refused[seg], c.cached[seg] = false, false
				}
			} else if c.cached[seg] {
				c.busy[seg] = true
			}
			mu.Unlock()
			if owed {
				if err := c.conn.Released(c.id, []proto.SegKey{seg}); err != nil {
					t.Fatalf("%s: %v", at("release a refused copy"), err)
				}
			}
		case op < 6:
			mu.Lock()
			idle := c.cached[seg] && !c.busy[seg]
			if idle {
				c.cached[seg] = false
			}
			mu.Unlock()
			if idle {
				if err := c.conn.Released(c.id, []proto.SegKey{seg}); err != nil {
					t.Fatalf("%s: %v", at("release"), err)
				}
			}
		case op == 10 && idleSeg(seg): // a fetch during another client's X
			o := other(c)
			dec := fetch(at("fetch under X"), c, seg)
			txid, err := c.conn.NewTx()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.conn.Lock(c.id, txid, seg, proto.LockX); err != nil {
				t.Fatalf("%s: lock with no copy in use: %v", at("fetch under X"), err)
			}
			type fetched struct {
				v   uint64
				err error
			}
			done := make(chan fetched, 1)
			go func() {
				_, v, err := read(o, seg)
				done <- fetched{v, err}
			}()
			time.Sleep(confWait / 4) // the fetch is under way, or has answered
			commit(at("fetch under X"), c, txid, seg, dec)
			if f := <-done; f.err != nil || f.v != committed[seg] {
				t.Fatalf("%s: a fetch made during the X read %d (%v); the writer committed %d: its update would be lost", at("fetch under X"), f.v, f.err, committed[seg])
			}
		case op == 11 && idleSeg(seg): // item 15's cycle: a refusal, then a read behind the X
			r := other(c)
			fetch(at("cycle"), r, seg)
			mu.Lock()
			r.busy[seg] = true
			mu.Unlock()
			wtx, err := c.conn.NewTx()
			if err != nil {
				t.Fatal(err)
			}
			locked := make(chan error, 1)
			go func() { locked <- c.conn.Lock(c.id, wtx, seg, proto.LockX) }()
			for refused := false; !refused; {
				select {
				case err := <-locked:
					t.Fatalf("%s: the X returned %v before its callback was refused", at("cycle"), err)
				case <-time.After(100 * time.Microsecond):
				}
				mu.Lock()
				refused = r.refused[seg]
				mu.Unlock()
			}
			rtx, err := r.conn.NewTx()
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			err = r.conn.LockObject(r.id, rtx, seg, 0, proto.LockS)
			if d := time.Since(start); !isLockErr(err, lock.ErrDeadlock) || d > confWait/2 {
				t.Fatalf("%s: a read lock behind the X its client refused: %v after %v, want ErrDeadlock at once", at("cycle"), err, d)
			}
			if err := r.conn.Abort(r.id, rtx); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			r.busy[seg], r.refused[seg], r.cached[seg] = false, false, false
			mu.Unlock()
			if err := r.conn.Released(r.id, []proto.SegKey{seg}); err != nil {
				t.Fatal(err)
			}
			if err := <-locked; err != nil {
				t.Fatalf("%s: the X after the victim let go: %v", at("cycle"), err)
			}
			if err := c.conn.Abort(c.id, wtx); err != nil {
				t.Fatal(err)
			}
		case op >= 6 && op < 10: // write: read, lock, commit
			dec := fetch(at("write"), c, seg)
			mu.Lock()
			blocked := false
			for _, o := range clients {
				blocked = blocked || (o != c && o.cached[seg] && o.busy[seg])
			}
			mu.Unlock()
			txid, err := c.conn.NewTx()
			if err != nil {
				t.Fatal(err)
			}
			err = c.conn.Lock(c.id, txid, seg, proto.LockX)
			if blocked {
				if !isLockErr(err, lock.ErrTimeout) {
					t.Fatalf("%s: lock with another client's copy in use: %v, want the lock timeout", at("write"), err)
				}
				if err := c.conn.Abort(c.id, txid); err != nil {
					t.Fatalf("%s: abort: %v", at("write"), err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: lock with no copy in use: %v", at("write"), err)
			}
			mu.Lock()
			for oi, o := range clients {
				if o != c && o.cached[seg] {
					mu.Unlock()
					t.Fatalf("%s: client %d is about to dirty %v while client %d still caches it", at("write"), ci, seg, oi)
				}
			}
			mu.Unlock()
			commit(at("write"), c, txid, seg, dec)
		}
	}
}
