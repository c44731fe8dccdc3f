// Package lock is the one holder table of BeSS (paper §3): strict two-phase
// locking for transactions and, in the same table, callback locking's
// cached copies. A registered client's copy is a grant kept past any
// transaction and compatible with every mode but X: a fetch takes it (Copy)
// behind another client's X, and an X calls the other clients' copies back
// itself (Callback). Every wait — a queued request, or a copy its client
// refused to give up — is an edge of one waits-for graph, so a cycle fails a
// victim at once with ErrDeadlock; a timeout is the backstop for distributed
// cycles, which §3 detects by timeout.
//
// The same manager serves page-level locks acquired automatically by the
// update-detection layer (§2.3) and the software object-level locks of [27].
package lock

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"bess/internal/lockcheck"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes: intention share/exclusive, share, share+intention-exclusive,
// exclusive.
const (
	None Mode = iota
	IS
	IX
	S
	SIX
	X
)

var modeNames = [...]string{"none", "IS", "IX", "S", "SIX", "X"}

// String names the mode.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// compat is the compatibility matrix of granted modes, in Mode order.
var compat = [...][6]bool{
	None: {true, true, true, true, true, true},
	IS:   {true, true, true, true, true, false},
	IX:   {true, true, true, false, false, false},
	S:    {true, true, false, true, false, false},
	SIX:  {true, true, false, false, false, false},
	X:    {true, false, false, false, false, false},
}

// compatible reports whether two granted modes may coexist.
func compatible(a, b Mode) bool { return compat[a][b] }

// sup returns the least mode covering both a and b (lock upgrade lattice):
// the stronger of the two, but for IX and S, which only SIX covers.
func sup(a, b Mode) Mode {
	if a == IX && b == S || a == S && b == IX {
		return SIX
	}
	return max(a, b)
}

// TxID identifies a transaction.
type TxID uint64

// Kind partitions the lock name space.
type Kind uint8

// Lock name kinds, from coarse to fine.
const (
	KindDatabase Kind = iota
	KindFile
	KindSegment
	KindPage
	KindObject
)

// Name is a lockable resource name.
type Name struct {
	Kind       Kind
	Q0, Q1, Q2 uint64
}

// String renders the name for diagnostics.
func (n Name) String() string {
	return fmt.Sprintf("%d/%d.%d.%d", n.Kind, n.Q0, n.Q1, n.Q2)
}

// Errors returned by Acquire and Copy.
var (
	ErrDeadlock = errors.New("lock: deadlock detected")
	ErrTimeout  = errors.New("lock: acquisition timed out")
	ErrClosed   = errors.New("lock: manager closed")
	// ErrUnknownClient reports a client Register never gave out, or one
	// Remove took back.
	ErrUnknownClient = errors.New("lock: unknown client")
)

// Callback asks a client to give up its copy of name. refused means a live
// transaction of the client uses it: the client lets it go (Drop) when that
// transaction ends, which the X that asked waits for. An error means the
// client cannot be reached: it is removed.
type Callback func(name Name) (refused bool, err error)

// rankManagerMu places Manager.mu in the server's lock hierarchy
// (internal/server/lockorder.go). It is never held across a Callback.
const rankManagerMu lockcheck.Rank = 20

// owner holds grants and waits for them: a transaction, or — client set — a
// registered client, whose grants are its cached copies.
type owner struct {
	tx     TxID
	client uint32
}

type waiter struct {
	o    owner
	name Name
	mode Mode
	ch   chan error    // buffered: the grant (nil) or the failure, sent once
	kick chan struct{} // buffered: copies may be all that is in the way
	// The rest is under Manager.mu: whether w is queued, the clients whose
	// copy w called back, and those that refused (edges of the graph).
	queued         bool
	asked, refused []uint32
}

type head struct {
	granted map[owner]Mode
	queue   []*waiter
}

// client is a registered client: its callback (nil until SetCallback) and
// its live transactions (Bind).
type client struct {
	cb  Callback
	txs map[TxID]bool
}

// Stats are cumulative lock-manager counters.
type Stats struct {
	Acquires  int64 // transactions' requests; a copy is not one
	Blocks    int64
	Deadlocks int64
	Timeouts  int64
	Upgrades  int64
	Callbacks int64 // copies called back
	Refusals  int64 // callbacks refused
}

// Manager is a lock manager. Safe for concurrent use.
type Manager struct {
	mu      lockcheck.Mutex
	locks   map[Name]*head          // guarded by mu
	held    map[owner]map[Name]Mode // guarded by mu
	waits   map[owner][]*waiter     // guarded by mu
	clients map[uint32]*client      // guarded by mu
	txc     map[TxID]uint32         // guarded by mu; a bound transaction's client
	next    uint32                  // guarded by mu
	closed  bool                    // guarded by mu
	stats   Stats                   // guarded by mu

	// DefaultTimeout bounds a request that names no timeout; zero means wait
	// forever (deadlock detection still applies).
	DefaultTimeout time.Duration
	// Gone, if set before the manager is shared, is told once, with mu not
	// held, of each client removed because its callback failed.
	Gone func(client uint32)
}

// NewManager returns an empty lock manager.
func NewManager() *Manager {
	m := &Manager{
		locks:   make(map[Name]*head),
		held:    make(map[owner]map[Name]Mode),
		waits:   make(map[owner][]*waiter),
		clients: make(map[uint32]*client),
		txc:     make(map[TxID]uint32),
	}
	m.mu.Init("lock.Manager.mu", rankManagerMu)
	return m
}

// Register admits a new client and returns its id (never 0). Until
// SetCallback gives it a callback, an X forgets its copies instead.
func (m *Manager) Register() uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.next++
	m.clients[m.next] = &client{txs: make(map[TxID]bool)}
	return m.next
}

// SetCallback installs client c's callback.
func (m *Manager) SetCallback(c uint32, cb Callback) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.clients[c] == nil {
		return ErrUnknownClient
	}
	m.clients[c].cb = cb
	return nil
}

// Registered reports whether Register gave c out and Remove has not taken it
// back.
func (m *Manager) Registered(c uint32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clients[c] != nil
}

// Bind makes tx a transaction of registered client c until tx ends
// (ReleaseAll): neither waits on the other's grants, and a copy c refused to
// give up waits for tx.
func (m *Manager) Bind(tx TxID, c uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cl := m.clients[c]; cl != nil {
		cl.txs[tx], m.txc[tx] = true, c
	}
}

// Remove forgets client c — its copies, its waiting copy requests (which fail
// with ErrUnknownClient) and its transactions' binding — and reports whether
// it was registered.
func (m *Manager) Remove(c uint32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.removeLocked(c)
}

func (m *Manager) removeLocked(c uint32) bool {
	m.mu.AssertHeld()
	cl, o := m.clients[c], owner{client: c}
	if cl == nil {
		return false
	}
	delete(m.clients, c)
	for tx := range cl.txs {
		delete(m.txc, tx)
	}
	for _, w := range slices.Clone(m.waits[o]) {
		m.dequeue(w)
		w.ch <- ErrUnknownClient
	}
	for name := range m.held[o] {
		m.releaseLocked(o, name)
	}
	return true
}

// Acquire obtains (or upgrades to) mode on name for tx, blocking until
// granted, deadlock, or timeout (0 = DefaultTimeout; negative = no wait). An
// X first calls back the copies other clients hold of name.
func (m *Manager) Acquire(tx TxID, name Name, mode Mode, timeout time.Duration) error {
	return m.acquire(owner{tx: tx}, name, mode, timeout)
}

// Copy records that client c caches name, once no other client's
// transaction holds X on it or waits for X ahead of it, waiting up to
// DefaultTimeout. A client that is not registered — client 0 is nobody — is
// not recorded, and cannot be called back.
func (m *Manager) Copy(c uint32, name Name) error {
	if c == 0 {
		return nil
	}
	return m.acquire(owner{client: c}, name, IS, 0) // IS's row: it conflicts with X alone
}

// Drop forgets client c's copy of name and reports whether no client holds
// one any more.
func (m *Manager) Drop(c uint32, name Name) (last bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releaseLocked(owner{client: c}, name)
	if h := m.locks[name]; h != nil {
		for o := range h.granted {
			if o.client != 0 {
				return false
			}
		}
	}
	return true
}

func (m *Manager) acquire(o owner, name Name, mode Mode, timeout time.Duration) error {
	if timeout == 0 {
		timeout = m.DefaultTimeout
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if o.client != 0 && m.clients[o.client] == nil {
		m.mu.Unlock()
		return nil
	}
	if o.client == 0 {
		m.stats.Acquires++
	}
	h := m.locks[name]
	if h == nil {
		h = &head{granted: make(map[owner]Mode)}
		m.locks[name] = h
	}
	cur := h.granted[o]
	want := sup(cur, mode)
	if want == cur {
		m.mu.Unlock()
		return nil // already held
	}
	if cur != None {
		m.stats.Upgrades++
	}
	if m.free(h, o, want, nil) {
		m.grantLocked(h, o, name, want)
		m.mu.Unlock()
		return nil
	}
	if timeout < 0 {
		m.mu.Unlock()
		return ErrTimeout
	}
	// Block. First check for a deadlock this wait would create.
	w := &waiter{o: o, name: name, mode: want, ch: make(chan error, 1), kick: make(chan struct{}, 1), queued: true}
	h.queue = append(h.queue, w)
	m.waits[o] = append(m.waits[o], w)
	if m.cycleFrom(o) {
		m.dequeue(w)
		m.stats.Deadlocks++
		m.mu.Unlock()
		return ErrDeadlock
	}
	m.stats.Blocks++
	m.mu.Unlock()
	var expired <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expired = timer.C
	}
	for {
		if err, done := m.callBack(w); done {
			return err
		}
		select {
		case err := <-w.ch:
			return err
		case <-w.kick:
		case <-expired:
			m.mu.Lock()
			defer m.mu.Unlock()
			select {
			case err := <-w.ch: // the grant raced the timer
				return err
			default:
			}
			m.dequeue(w)
			m.stats.Timeouts++
			return ErrTimeout
		}
	}
}

// callBack calls back, one at a time with mu not held, each copy w has not
// asked that alone stands in its way. A copy given up is released, an
// unreachable client removed (and Gone told), and a refused copy stays
// granted as an edge of the graph: if it closes a cycle, w fails (done).
func (m *Manager) callBack(w *waiter) (err error, done bool) {
	for {
		m.mu.Lock()
		c, due := uint32(0), w.queued
		if !due {
			m.mu.Unlock()
			return nil, false
		}
		m.inWay(m.locks[w.name], w.o, w.mode, w, func(other owner, queued bool) bool {
			if queued || other.client == 0 {
				due = false // a transaction is in the way: wait for it
			} else if c == 0 && !slices.Contains(w.asked, other.client) {
				c = other.client
			}
			return due
		})
		if !due || c == 0 {
			m.mu.Unlock()
			return nil, false
		}
		w.asked = append(w.asked, c)
		cb := m.clients[c].cb
		if cb == nil { // nothing to call: the copy is forgotten
			m.releaseLocked(owner{client: c}, w.name)
			m.mu.Unlock()
			continue
		}
		m.stats.Callbacks++
		m.mu.Unlock()
		refused, cerr := cb(w.name)
		m.mu.Lock()
		switch {
		case cerr != nil:
			removed := m.removeLocked(c)
			m.mu.Unlock()
			if removed && m.Gone != nil {
				m.Gone(c)
			}
			continue
		case refused:
			m.stats.Refusals++
			if w.queued {
				w.refused = append(w.refused, c)
				if m.cycleFrom(w.o) {
					m.dequeue(w)
					m.stats.Deadlocks++
					m.mu.Unlock()
					return ErrDeadlock, true
				}
			}
		case w.queued: // given up; once w is answered the copy is no longer the one asked
			m.releaseLocked(owner{client: c}, w.name)
		}
		m.mu.Unlock()
	}
}

// inWay calls fn for each owner in the way of o's request for want on h —
// each unrelated grant it cannot share, then, unless o upgrades, each
// unrelated request it cannot pass queued ahead of at (nil: the whole queue:
// FIFO fairness; an upgrade gets priority so that it does not stall behind
// new arrivals) — until fn returns false.
func (m *Manager) inWay(h *head, o owner, want Mode, at *waiter, fn func(other owner, queued bool) bool) {
	m.mu.AssertHeld()
	for other, om := range h.granted {
		if !m.related(o, other) && !compatible(want, om) && !fn(other, false) {
			return
		}
	}
	if _, upgrading := h.granted[o]; upgrading {
		return
	}
	for _, q := range h.queue {
		if q == at || !m.related(o, q.o) && !compatible(want, q.mode) && !fn(q.o, true) {
			return
		}
	}
}

// free reports whether nothing is in the way of o's request for want on h
// (inWay).
func (m *Manager) free(h *head, o owner, want Mode, at *waiter) bool {
	free := true
	m.inWay(h, o, want, at, func(owner, bool) bool { free = false; return false })
	return free
}

// related reports whether a and b never wait on each other: the same owner,
// or a client and a transaction bound to it.
func (m *Manager) related(a, b owner) bool {
	m.mu.AssertHeld()
	switch {
	case a.client != 0 && b.client == 0:
		return m.txc[b.tx] == a.client
	case a.client == 0 && b.client != 0:
		return m.txc[a.tx] == b.client
	}
	return a == b
}

func (m *Manager) grantLocked(h *head, o owner, name Name, mode Mode) {
	m.mu.AssertHeld()
	h.granted[o] = mode
	if m.held[o] == nil {
		m.held[o] = make(map[Name]Mode)
	}
	m.held[o][name] = mode
}

// dequeue takes w, unanswered, out of its head's queue and lets the requests
// it held up move.
func (m *Manager) dequeue(w *waiter) {
	m.mu.AssertHeld()
	h := m.locks[w.name]
	h.queue = slices.DeleteFunc(h.queue, func(q *waiter) bool { return q == w })
	m.unwait(w)
	m.wakeLocked(w.name, h)
}

// unwait marks w answered.
func (m *Manager) unwait(w *waiter) {
	m.mu.AssertHeld()
	w.queued = false
	if ws := slices.DeleteFunc(m.waits[w.o], func(q *waiter) bool { return q == w }); len(ws) > 0 {
		m.waits[w.o] = ws
	} else {
		delete(m.waits, w.o)
	}
}

// wakeLocked re-examines a head's queue after a change, granting in FIFO
// order. An X left at the front is kicked: copies may be all that is in its
// way now.
func (m *Manager) wakeLocked(name Name, h *head) {
	m.mu.AssertHeld()
	for len(h.queue) > 0 {
		w := h.queue[0]
		want := sup(h.granted[w.o], w.mode)
		if !m.free(h, w.o, want, w) {
			select {
			case w.kick <- struct{}{}:
			default:
			}
			break
		}
		h.queue = h.queue[1:]
		m.unwait(w)
		m.grantLocked(h, w.o, name, want)
		w.ch <- nil
	}
	if len(h.granted) == 0 && len(h.queue) == 0 {
		delete(m.locks, name)
	}
}

// Release drops tx's lock on name (rare; strict 2PL normally releases all at
// end of transaction).
func (m *Manager) Release(tx TxID, name Name) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releaseLocked(owner{tx: tx}, name)
}

func (m *Manager) releaseLocked(o owner, name Name) {
	m.mu.AssertHeld()
	h := m.locks[name]
	if h == nil {
		return
	}
	if _, held := h.granted[o]; !held {
		return
	}
	delete(h.granted, o)
	delete(m.held[o], name)
	if len(m.held[o]) == 0 {
		delete(m.held, o)
	}
	m.wakeLocked(name, h)
}

// ReleaseAll drops every lock tx holds (commit/abort under strict 2PL) and
// ends its binding to a client.
func (m *Manager) ReleaseAll(tx TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o := owner{tx: tx}
	for n := range m.held[o] {
		m.releaseLocked(o, n)
	}
	if c, ok := m.txc[tx]; ok {
		delete(m.txc, tx)
		delete(m.clients[c].txs, tx)
	}
}

// Holds returns the mode tx holds on name (None if not held).
func (m *Manager) Holds(tx TxID, name Name) Mode { return m.mode(owner{tx: tx}, name) }

// Holding reports whether client c holds a copy of name.
func (m *Manager) Holding(c uint32, name Name) bool { return m.mode(owner{client: c}, name) != None }

func (m *Manager) mode(o owner, name Name) Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.held[o][name]
}

// Owned returns a copy of tx's lock table.
func (m *Manager) Owned(tx TxID) map[Name]Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.held[owner{tx: tx}])
}

// Holders returns the transactions with a granted lock on name; a client's
// copy is not one.
func (m *Manager) Holders(name Name) []TxID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []TxID
	if h := m.locks[name]; h != nil {
		for o := range h.granted {
			if o.client == 0 {
				out = append(out, o.tx)
			}
		}
	}
	return out
}

// cycleFrom reports whether the waits-for graph has a cycle through start,
// which has just gained an edge. An owner waits on what is in the way of its
// requests (blockers). A client waits on its transactions, which let a
// refused copy go when they end, and a transaction on its client's requests:
// a session's transaction does not move while its fetch waits. (A node is one
// client: its fetch for one local counts against every local's transaction.)
func (m *Manager) cycleFrom(start owner) bool {
	m.mu.AssertHeld()
	return m.reaches(start, start, map[owner]bool{start: true})
}

// reaches reports whether a path of waits leads from o to start through
// owners not yet seen.
func (m *Manager) reaches(o, start owner, seen map[owner]bool) bool {
	m.mu.AssertHeld()
	next := m.blockers(o, nil)
	if cl := m.clients[o.client]; o.client != 0 && cl != nil {
		for tx := range cl.txs {
			next = append(next, owner{tx: tx})
		}
	} else if c := m.txc[o.tx]; o.client == 0 && c != 0 {
		next = m.blockers(owner{client: c}, next)
	}
	for _, n := range next {
		if n == start {
			return true
		}
		if !seen[n] {
			seen[n] = true
			if m.reaches(n, start, seen) {
				return true
			}
		}
	}
	return false
}

// blockers appends to out what o's requests wait on: what is in their way, a
// copy only once its client refused it — until then it is being called back.
func (m *Manager) blockers(o owner, out []owner) []owner {
	m.mu.AssertHeld()
	for _, w := range m.waits[o] {
		m.inWay(m.locks[w.name], o, w.mode, w, func(other owner, queued bool) bool {
			if queued || other.client == 0 || slices.Contains(w.refused, other.client) {
				out = append(out, other)
			}
			return true
		})
	}
	return out
}

// Snapshot returns the cumulative statistics.
func (m *Manager) Snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Close fails all waiters and rejects further acquisitions.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for _, h := range m.locks {
		for _, w := range h.queue {
			m.unwait(w)
			w.ch <- ErrClosed
		}
		h.queue = nil
	}
}

// --- Name helpers used across layers ---

// PageName builds the canonical lock name for a data page.
func PageName(area uint32, segStart int64, pageIdx int) Name {
	return Name{Kind: KindPage, Q0: uint64(area), Q1: uint64(segStart), Q2: uint64(pageIdx)}
}

// ObjectName builds the canonical lock name for object-level locking [27].
func ObjectName(area uint32, segStart int64, slot int) Name {
	return Name{Kind: KindObject, Q0: uint64(area), Q1: uint64(segStart), Q2: uint64(slot)}
}
