// Package tx implements BeSS transaction management: ACID transactions over
// the WAL and lock manager (paper §3), with runtime rollback under CLR
// protection and two-phase commit for distributed transactions.
//
// The package also owns what goes into the log for a page change (logging.go):
// byte-range records, a whole-page anchor per page and checkpoint epoch, and
// the dirty-page table a checkpoint lists.
package tx

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bess/internal/hooks"
	"bess/internal/lock"
	"bess/internal/lockcheck"
	"bess/internal/page"
	"bess/internal/wal"
)

// State is a transaction's lifecycle state.
type State uint8

// Transaction states.
const (
	Active State = iota
	Prepared
	Committed
	Aborted
)

// String names the state.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Prepared:
		return "prepared"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Errors returned by the transaction layer.
var (
	ErrNotActive   = errors.New("tx: transaction not active")
	ErrNotPrepared = errors.New("tx: transaction not prepared")
)

// rankManagerMu places Manager.mu in the server's lock hierarchy
// (internal/server/lockorder.go).
const rankManagerMu lockcheck.Rank = 40

// Manager creates and tracks transactions against one log + lock manager +
// page store: its table is the one place a live transaction's state, owner
// and last LSN are kept. Safe for concurrent use.
type Manager struct {
	log   *wal.Log
	locks *lock.Manager
	pager wal.Pager
	hooks *hooks.Registry

	// epoch orders appends against Checkpoint (logging.go). Lock order:
	// epoch, then Tx.mu, then mu; never held across a log force.
	epoch sync.RWMutex

	mu      lockcheck.Mutex
	nextID  uint64               // guarded by mu
	active  map[uint64]*Tx       // guarded by mu; active and prepared, by id
	anchors map[page.ID]page.LSN // guarded by mu; see logging.go

	// LockTimeout is passed to lock acquisitions made through transactions;
	// the paper uses timeouts for distributed deadlock detection.
	LockTimeout time.Duration

	commits, aborts int64 // guarded by mu

	// Multiversion read support (DESIGN.md §7). commitHook/abortHook are set
	// once at open time, before any transaction runs, and are read without
	// m.mu thereafter. The commit hook runs after the commit record is
	// durable but before locks release, so a version store can publish the
	// committed images while the writer still excludes concurrent stagers.
	commitHook func(txID uint64, commitLSN page.LSN)
	abortHook  func(txID uint64)

	commitStamp page.LSN            // guarded by mu; latest published commit LSN (the version clock)
	snaps       map[uint64]page.LSN // guarded by mu; open snapshot id → stamp
	nextSnap    uint64              // guarded by mu
}

// NewManager wires a transaction manager. hooks may be nil.
func NewManager(log *wal.Log, locks *lock.Manager, pager wal.Pager, hk *hooks.Registry) *Manager {
	m := &Manager{
		log:     log,
		locks:   locks,
		pager:   pager,
		hooks:   hk,
		nextID:  1,
		active:  make(map[uint64]*Tx),
		anchors: make(map[page.ID]page.LSN),
	}
	m.mu.Init("Manager.mu", rankManagerMu)
	return m
}

// Tx is one transaction.
type Tx struct {
	m  *Manager
	id uint64
	// owner is the client connection the transaction belongs to, 0 for none
	// (local use, a branch restart adopted, a prepared branch whose
	// connection dropped). Guarded by m.mu.
	owner   uint32
	mu      sync.Mutex
	state   State
	lastLSN page.LSN
	// dirty maps each page this tx changed to the recLSN a checkpoint lists
	// for it: the LSN of the page's anchor at the tx's first change.
	dirty map[page.ID]page.LSN
}

// register enters a transaction into the table. The caller holds m.mu.
//
//bess:holds mu
func (m *Manager) register(id uint64, owner uint32, state State, lastLSN page.LSN) *Tx {
	if id >= m.nextID {
		m.nextID = id + 1
	}
	t := &Tx{m: m, id: id, owner: owner, state: state, lastLSN: lastLSN, dirty: make(map[page.ID]page.LSN)}
	m.active[id] = t
	return t
}

// Begin starts a transaction under the next free id, owned by no connection.
func (m *Manager) Begin() *Tx {
	m.mu.Lock()
	t := m.register(m.nextID, 0, Active, 0)
	m.mu.Unlock()
	m.fire(hooks.EvTxBegin, t.id)
	return t
}

// Ensure returns the live transaction id, beginning it for owner if there is
// none (servers use the global id of the client's transaction). Concurrent
// calls for one id begin it once.
func (m *Manager) Ensure(id uint64, owner uint32) *Tx {
	m.mu.Lock()
	t, live := m.active[id]
	if !live {
		t = m.register(id, owner, Active, 0)
	}
	m.mu.Unlock()
	if !live {
		m.fire(hooks.EvTxBegin, id)
	}
	return t
}

// Lookup returns the live — active or prepared — transaction id, or nil.
func (m *Manager) Lookup(id uint64) *Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active[id]
}

// AbortOwned ends owner's part in its transactions (its connection is gone):
// the active ones are rolled back; a prepared one is not the participant's to
// abort and stays in the table, in doubt and unowned, until Decide — exactly
// as restart leaves it.
func (m *Manager) AbortOwned(owner uint32) error {
	m.mu.Lock()
	var mine []*Tx
	for _, t := range m.active {
		if t.owner == owner {
			t.owner = 0
			mine = append(mine, t)
		}
	}
	m.mu.Unlock()
	var errs []error
	for _, t := range mine {
		if _, err := t.rollback(false); err != nil && !errors.Is(err, ErrNotActive) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (m *Manager) fire(ev hooks.Event, arg any) {
	if m.hooks != nil {
		_ = m.hooks.Fire(ev, arg)
	}
}

// ID returns the transaction id.
func (t *Tx) ID() uint64 { return t.id }

// State returns the current state.
func (t *Tx) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// LastLSN returns the LSN of the transaction's most recent log record.
func (t *Tx) LastLSN() page.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastLSN
}

// Lock acquires (or upgrades) a lock on behalf of the transaction, firing
// the lock hooks and mapping deadlocks to the deadlock event.
func (t *Tx) Lock(name lock.Name, mode lock.Mode) error {
	t.mu.Lock()
	if t.state != Active {
		t.mu.Unlock()
		return ErrNotActive
	}
	t.mu.Unlock()
	err := t.m.locks.Acquire(lock.TxID(t.id), name, mode, t.m.LockTimeout)
	if err == nil {
		t.m.fire(hooks.EvLockAcquire, name)
	} else if errors.Is(err, lock.ErrDeadlock) {
		t.m.fire(hooks.EvDeadlock, t.id)
	}
	return err
}

// Commit logs and forces a commit record, releases all locks (strict 2PL),
// and retires the transaction. A transaction that logged nothing commits
// without a record or a force: nothing of it is in the log to resolve, and
// the version clock stays where it is. A commit whose force fails ends the
// transaction all the same — unpublished, locks released, out of the table:
// whether it committed is for restart to read off the log.
func (t *Tx) Commit() error {
	m := t.m
	lsn, err := t.logEnd(Committed, wal.TCommit)
	if err != nil {
		return err
	}
	if lsn != 0 {
		err = m.log.Flush(lsn)
	}
	if lsn != 0 && err == nil {
		_, err = m.log.Append(&wal.Record{Type: wal.TEnd, Tx: t.id})
		// Version-store publication order: append the committed images to the
		// version chains (hook) while this writer's X locks still exclude any
		// concurrent stager of the same segments, then advance the version
		// clock so new snapshots can observe them, then release locks.
		if h := m.commitHook; h != nil {
			h(t.id, lsn)
		}
		m.noteCommit(lsn)
	} else if h := m.abortHook; h != nil {
		// What it staged with the version store was left unchanged, or is
		// never to be published.
		h(t.id)
	}
	t.finish()
	if err != nil {
		return err
	}
	m.fire(hooks.EvTxCommit, t.id)
	m.mu.Lock()
	m.commits++
	m.mu.Unlock()
	return nil
}

// Abort rolls the transaction back: it walks the update chain in reverse,
// logs a CLR for each update and restores its before-image through the pager,
// then logs abort+end and releases locks. It is the one rollback there is —
// a client's abort, a 2PC abort decision, a dropped connection and restart's
// undo of a loser all run it. A transaction that logged nothing has nothing
// to undo and, like its commit, leaves no record.
func (t *Tx) Abort() error {
	_, err := t.rollback(true)
	return err
}

// rollback is Abort, which a prepared transaction is open to only when its
// coordinator decided so. It reports how many updates it undid.
func (t *Tx) rollback(decided bool) (undone int, err error) {
	m := t.m
	t.mu.Lock()
	if t.state != Active && (t.state != Prepared || !decided) {
		t.mu.Unlock()
		return 0, ErrNotActive
	}
	next := t.lastLSN
	t.mu.Unlock()

	if next != 0 {
		// The records to undo may still be buffered; force through this
		// transaction's last record so ReadRecord sees the chain — no need to
		// wait on other transactions' unforced tails beyond it.
		if err := m.log.Flush(next); err != nil {
			return 0, err
		}
	}
	buf := make([]byte, page.Size)
	for next != 0 {
		rec, err := m.log.ReadRecord(next)
		if err != nil {
			return undone, fmt.Errorf("tx %d: abort read at %d: %w", t.id, next, err)
		}
		switch rec.Type {
		case wal.TUpdate:
			if err := t.undo(rec, buf); err != nil {
				return undone, err
			}
			undone++
			next = rec.PrevLSN
		case wal.TCLR:
			next = rec.UndoNext
		default:
			next = rec.PrevLSN
		}
	}
	lsn, err := t.logEnd(Aborted, wal.TAbort, wal.TEnd)
	if err != nil {
		return undone, err
	}
	if lsn != 0 {
		if err := m.log.Flush(lsn); err != nil {
			return undone, err
		}
	}
	if h := m.abortHook; h != nil {
		h(t.id)
	}
	t.finish()
	m.fire(hooks.EvTxAbort, t.id)
	m.mu.Lock()
	m.aborts++
	m.mu.Unlock()
	return undone, nil
}

// Prepare logs and forces a prepare record (2PC participant vote). The
// transaction holds its locks until the decision.
func (t *Tx) Prepare() error {
	lsn, err := t.logEnd(Prepared, wal.TPrepare)
	if err != nil {
		return err
	}
	return t.m.log.Flush(lsn)
}

// finish releases locks and removes the tx from the active table.
func (t *Tx) finish() {
	t.m.locks.ReleaseAll(lock.TxID(t.id))
	t.m.mu.Lock()
	delete(t.m.active, t.id)
	t.m.mu.Unlock()
	t.m.fire(hooks.EvLockRelease, t.id)
}

// Counts reports cumulative commits and aborts.
func (m *Manager) Counts() (commits, aborts int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commits, m.aborts
}

// ActiveCount returns the number of live transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}
