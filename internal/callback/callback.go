// Package callback is the copy table of callback locking (paper §3): who
// caches which segment, and the loop that calls those copies back before a
// write is granted. A BeSS server keeps one for its clients and a node server
// one for its local applications; it is the same protocol at both tiers, so
// it is written here once.
package callback

import (
	"errors"
	"sync/atomic"
	"time"

	"bess/internal/lockcheck"
	"bess/internal/proto"
)

// ErrUnknownClient reports a callback installed for an id Register never gave out
// (or one already removed).
var ErrUnknownClient = errors.New("callback: unknown client")

// Func revokes a client's cached copy of seg. refused means a live
// transaction is using the copy: the client lets it go when that transaction
// ends and says so (Drop), which is what a refused Revoke waits for; an error
// means the client cannot be reached at all.
type Func func(seg proto.SegKey) (refused bool, err error)

// rankTableMu places Table.mu in the server's lock hierarchy
// (internal/server/lockorder.go): inside reader.areaMu, outside Manager.mu.
const rankTableMu lockcheck.Rank = 20

// Table is a client registry plus, per segment, the set of clients caching it.
// Its mutex is never held across a callback.
type Table struct {
	timedOut error        // what Revoke returns when refusals outlast its timeout
	gone     func(uint32) // told, once, of each client Revoke found unreachable; may be nil

	mu      lockcheck.Mutex
	clients map[uint32]Func                  // guarded by mu; nil Func until SetCallback
	next    uint32                           // guarded by mu
	copies  map[proto.SegKey]map[uint32]bool // guarded by mu
	// changed holds, for a segment a Revoke has called back, a channel
	// closed when one of its holders lets its copy go; no segment nobody
	// caches has one.
	changed map[proto.SegKey]chan struct{} // guarded by mu

	callbacks, refusals atomic.Int64
}

// New returns an empty table. timedOut is the error Revoke returns when its
// timeout passes with a copy still refused. gone, if not nil, is called — with
// no table lock held, after the client has been removed — for each client whose
// callback returned an error, so the owner can let go of whatever else it keeps
// for that client.
func New(timedOut error, gone func(client uint32)) *Table {
	t := &Table{
		timedOut: timedOut,
		gone:     gone,
		clients:  make(map[uint32]Func),
		copies:   make(map[proto.SegKey]map[uint32]bool),
		changed:  make(map[proto.SegKey]chan struct{}),
	}
	t.mu.Init("Table.mu", rankTableMu)
	return t
}

// Register admits a new client and returns its id (never 0). Until SetCallback
// gives it a callback its copies cannot be revoked and are simply forgotten.
func (t *Table) Register() uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.clients[t.next] = nil
	return t.next
}

// SetCallback installs client's revocation path.
func (t *Table) SetCallback(client uint32, cb Func) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.clients[client]; !ok {
		return ErrUnknownClient
	}
	t.clients[client] = cb
	return nil
}

// Registered reports whether client is registered: Register gave it out and
// Remove has not taken it back.
func (t *Table) Registered(client uint32) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.clients[client]
	return ok
}

// Record notes that client caches seg. Client 0 is nobody (a fetch made on no
// client's behalf) and is not recorded.
func (t *Table) Record(seg proto.SegKey, client uint32) {
	if client == 0 {
		return
	}
	t.mu.Lock()
	set := t.copies[seg]
	if set == nil {
		set = make(map[uint32]bool)
		t.copies[seg] = set
	}
	set[client] = true
	t.mu.Unlock()
}

// Drop forgets client's copy of seg and reports whether nobody caches seg any
// more.
func (t *Table) Drop(seg proto.SegKey, client uint32) (last bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropLocked(seg, client, true)
	return len(t.copies[seg]) == 0
}

// dropLocked forgets client's copy of seg. It wakes the Revokes waiting on
// seg if wake is set or nobody caches seg any more.
func (t *Table) dropLocked(seg proto.SegKey, client uint32, wake bool) {
	t.mu.AssertHeld()
	if set := t.copies[seg]; set != nil {
		delete(set, client)
		if len(set) == 0 {
			delete(t.copies, seg)
			wake = true
		}
	}
	if ch := t.changed[seg]; ch != nil && wake {
		close(ch)
		delete(t.changed, seg)
	}
}

// Remove forgets client and every copy it holds, and reports whether it was
// registered.
func (t *Table) Remove(client uint32) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.clients[client]
	delete(t.clients, client)
	for seg := range t.copies {
		t.dropLocked(seg, client, true)
	}
	return ok
}

// Counts reports how many callbacks Revoke has issued and how many of them
// were refused.
func (t *Table) Counts() (callbacks, refusals int64) {
	return t.callbacks.Load(), t.refusals.Load()
}

type holder struct {
	id uint32
	cb Func
}

// reachable lists the holders of seg other than except that can be called
// back and, if there are any, the channel the next of them to let go closes.
// A holder with no callback (never installed, or the client is gone) cannot
// be called back: its copy is forgotten.
func (t *Table) reachable(seg proto.SegKey, except uint32) ([]holder, <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var hs []holder
	for id := range t.copies[seg] {
		if id == except {
			continue
		}
		if cb := t.clients[id]; cb != nil {
			hs = append(hs, holder{id, cb})
		} else {
			t.dropLocked(seg, id, true)
		}
	}
	if len(hs) == 0 {
		return nil, nil
	}
	ch := t.changed[seg]
	if ch == nil {
		ch = make(chan struct{})
		t.changed[seg] = ch
	}
	return hs, ch
}

// complied forgets client's copy of seg, given up to a Revoke: that is news
// to no other Revoke while somebody still caches seg.
func (t *Table) complied(seg proto.SegKey, client uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropLocked(seg, client, false)
}

// Revoke calls back every client caching seg, except `except`, until each has
// given its copy up: a client that complies is forgotten as a holder, one that
// cannot be reached is removed from the table altogether, and one that
// refuses is asked once. Revoke then waits for a holder of seg to let its copy
// go — its Drop (the client's Released) or its Remove — before it asks the
// holders left again. If a refusal stands for timeout, Revoke returns the
// table's timed-out error.
func (t *Table) Revoke(seg proto.SegKey, except uint32, timeout time.Duration) error {
	var deadline *time.Timer
	defer func() {
		if deadline != nil {
			deadline.Stop()
		}
	}()
	for {
		hs, changed := t.reachable(seg, except)
		refused := false
		for _, h := range hs {
			t.callbacks.Add(1)
			switch no, err := h.cb(seg); {
			case err != nil:
				if t.Remove(h.id) && t.gone != nil {
					t.gone(h.id)
				}
			case no:
				t.refusals.Add(1)
				refused = true
			default:
				t.complied(seg, h.id)
			}
		}
		if !refused {
			return nil
		}
		if deadline == nil {
			deadline = time.NewTimer(timeout)
		}
		select {
		case <-changed:
		case <-deadline.C:
			return t.timedOut
		}
	}
}
