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

	"bess/internal/proto"
	"bess/internal/segment"
	"bess/internal/server"
)

// TestCallbackConformance holds a server, a node server, and the two together
// to the one invariant callback locking exists for (DESIGN.md §9): a segment
// cached dirty at one client is never cached at another. The body is the same
// for all three — the protocol is the same at both tiers.
func TestCallbackConformance(t *testing.T) {
	const wait = 40 * time.Millisecond
	setup := func(t *testing.T) (*server.Server, *NodeServer) {
		srv, ns := env(t)
		srv.CallbackTimeout, ns.RevokeTimeout = wait, wait
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

// isRevocationTimeout recognises either tier's typed error, also after it
// crossed the wire between them as text.
func isRevocationTimeout(err error) bool {
	return errors.Is(err, ErrRevocation) || errors.Is(err, server.ErrCallback) ||
		(err != nil && strings.Contains(err.Error(), server.ErrCallback.Error()))
}

// confClient is one bare client of a Conn and the shadow model's view of it.
// The callback runs on whatever goroutine the Conn delivers it on, so the
// model is under mu.
type confClient struct {
	conn   proto.Conn
	id     uint32
	cached map[proto.SegKey]bool // fetched, and not given up since
	busy   map[proto.SegKey]bool // a transaction of this client is reading its copy
}

// callbackConformance drives clients spread over conns through a seeded random
// history of fetches, reads that pin a copy, voluntary releases and writes,
// against a shadow model, and checks at every step: a write is granted exactly
// when no other client is using a copy, and then no other client has one; a
// write blocked by a copy in use fails with the tier's typed error; and every
// fetch, by anyone, through any tier, returns the last committed value.
func callbackConformance(t *testing.T, conns []proto.Conn, seed int64) {
	const nClients, nSegs, steps = 5, 3, 160
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	clients := make([]*confClient, nClients)
	for i := range clients {
		c := &confClient{conn: conns[i%len(conns)], cached: map[proto.SegKey]bool{}, busy: map[proto.SegKey]bool{}}
		id, err := c.conn.Hello("conformance")
		if err != nil {
			t.Fatal(err)
		}
		c.id = id
		err = c.conn.SetCallback(id, func(seg proto.SegKey) (bool, error) {
			mu.Lock()
			defer mu.Unlock()
			if c.busy[seg] {
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

	// fetch is a client reading seg into its cache; whatever tier serves it,
	// the image must be the committed one.
	fetch := func(at string, c *confClient, seg proto.SegKey) *segment.Seg {
		t.Helper()
		sl, ov, data, err := c.conn.FetchSeg(c.id, seg)
		if err != nil {
			t.Fatalf("%s: fetch: %v", at, err)
		}
		dec := decodeFetched(t, sl, ov, data)
		var got uint64
		if dec.Live(0) {
			b, err := dec.ObjectBytes(0)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			got = binary.BigEndian.Uint64(b)
		}
		if got != committed[seg] {
			t.Fatalf("%s: fetched value %d, last committed is %d: a stale copy was served", at, got, committed[seg])
		}
		mu.Lock()
		c.cached[seg] = true
		mu.Unlock()
		return dec
	}

	for step := 0; step < steps; step++ {
		ci := rng.Intn(nClients)
		c, seg := clients[ci], segs[rng.Intn(nSegs)]
		at := func(op string) string { return fmt.Sprintf("step %d (%s by client %d)", step, op, ci) }
		switch op := rng.Intn(10); {
		case op < 3:
			fetch(at("fetch"), c, seg)
		case op < 5: // a transaction starts or stops reading the cached copy
			mu.Lock()
			if c.busy[seg] {
				c.busy[seg] = false
			} else if c.cached[seg] {
				c.busy[seg] = true
			}
			mu.Unlock()
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
		default: // write: read, lock, commit
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
				if !isRevocationTimeout(err) {
					t.Fatalf("%s: lock with another client's copy in use: %v, want the revocation timeout", at("write"), err)
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
			var v [8]byte
			binary.BigEndian.PutUint64(v[:], committed[seg]+1)
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
				t.Fatalf("%s: commit: %v", at("write"), err)
			}
			committed[seg]++
		}
	}
}
