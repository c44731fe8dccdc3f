// Package tx implements BeSS transaction management: ACID transactions over
// the WAL and lock manager (paper §3), and two-phase commit for distributed
// transactions. No page is written before its transaction commits, so a
// rollback — at run time or of a loser at restart — writes nothing but its
// abort record.
//
// The package also owns what goes into the log for a page change (logging.go):
// redo-only runs of changed bytes carried by the transaction's commit record, a
// whole-page anchor per page from Open on, and the dirty-page table a
// checkpoint lists; and it writes the pages a commit's records describe,
// after the commit's force.
package tx

import (
	"errors"
	"fmt"
	"slices"
	"sync"

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

	// epoch orders appends against Checkpoint's dirty-page table
	// (logging.go). Lock order: epoch, then Tx.mu, then mu; never held across
	// a log force.
	epoch sync.RWMutex

	mu      lockcheck.Mutex
	nextID  uint64               // guarded by mu
	active  map[uint64]*Tx       // guarded by mu; active and prepared, by id
	anchors map[page.ID]page.LSN // guarded by mu; see logging.go

	commits, aborts int64 // guarded by mu

	// Multiversion read support (DESIGN.md §7). commitHook/abortHook are set
	// once at open time, before any transaction runs, and are read without
	// m.mu thereafter. The commit hook runs after the commit record is
	// durable, before the commit's page writes and before its locks release,
	// so a version store can advance its clock and publish the committed
	// images while the writer still excludes concurrent stagers.
	commitHook func(txID uint64, commitLSN page.LSN)
	abortHook  func(txID uint64)
	// writtenHook runs once a published commit's pages are written, before
	// its locks release.
	writtenHook func(txID uint64)
	// rollbackHook runs as a rollback starts, before it reads a page.
	rollbackHook func(txID uint64) error
	// repair is given the pages a durable commit failed to write (SetRepair).
	repair func(pages []page.ID, cause error) error
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
	// logged are the LSNs of t's records, in log order: what its rollback
	// re-anchors its pages to is their history without them (preImages).
	logged []page.LSN
	// dirty maps each page whose change t logged to the recLSN a checkpoint
	// lists for it: the LSN of the page's anchor when t first logged it.
	dirty map[page.ID]page.LSN
	// writes are the page writes t's changes defer to its commit, one per
	// page, in the order t first changed the pages (LogRedo); at finds a
	// page's. A prepared transaction lets them go: its commit rebuilds them by
	// replaying its records (writeBack). deferred says there are such writes
	// to do, in writes or in the log, until writeBack has done them.
	writes   []shipped
	at       map[page.ID]int
	deferred bool
	// queued is what the changes queued in writes would take in a record, as
	// LogRedo bounds it: the spill's measure.
	queued int
	// commitLSN is the commit record Publish forced, for Finish; 0 for a
	// commit that logged nothing.
	commitLSN page.LSN
}

// shipped is one page write t's changes defer to its commit, and the change
// of it still queued for t's next record.
type shipped struct {
	pid  page.ID
	img  []byte      // the whole page as the commit leaves it
	runs []run       // the runs of img queued as the page's change, in page order; none: nothing queued
	rec  wal.Pending // the last logged change of the page
}

// register enters a transaction into the table. The caller holds m.mu.
func (m *Manager) register(id uint64, owner uint32, state State, lastLSN page.LSN) *Tx {
	m.mu.AssertHeld()
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
// none (servers use the global id of the client's transaction), and binds it
// to owner in the lock manager, so that it never waits on its own client's
// cached copies (lock.Manager.Bind). Concurrent calls for one id begin it
// once.
func (m *Manager) Ensure(id uint64, owner uint32) *Tx {
	m.mu.Lock()
	t, live := m.active[id]
	m.mu.Unlock()
	if live {
		return t
	}
	if owner != 0 { // bound before anyone can find it: its first lock already knows
		m.locks.Bind(lock.TxID(id), owner)
	}
	m.mu.Lock()
	t, live = m.active[id]
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
		if err := t.rollback(false); err != nil && !errors.Is(err, ErrNotActive) {
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

// Pages returns the pages t's changes touch, in page order.
func (t *Tx) Pages() []page.ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	pages := make([]page.ID, 0, len(t.dirty))
	for pid := range t.dirty {
		pages = append(pages, pid)
	}
	sortPages(pages)
	return pages
}

// Lock acquires (or upgrades) a lock on behalf of the transaction, firing
// the lock hooks and mapping deadlocks to the deadlock event. It waits the
// lock manager's DefaultTimeout (the paper detects distributed deadlock by
// timeout).
func (t *Tx) Lock(name lock.Name, mode lock.Mode) error {
	t.mu.Lock()
	if t.state != Active {
		t.mu.Unlock()
		return ErrNotActive
	}
	t.mu.Unlock()
	err := t.m.locks.Acquire(lock.TxID(t.id), name, mode, 0)
	if err == nil {
		t.m.fire(hooks.EvLockAcquire, name)
	} else if errors.Is(err, lock.ErrDeadlock) {
		t.m.fire(hooks.EvDeadlock, t.id)
	}
	return err
}

// Commit logs and forces a commit record, which carries the changes t queued,
// publishes the commit (the commit hook), writes the pages its changes
// deferred to it (writeBack), releases all locks (strict 2PL), and retires the
// transaction, in this order: commit record → force → version publication →
// page write-back → lock release. It is Publish, then Finish: a caller that
// answers at publication — the server's wire reply — runs the two apart. A
// transaction that logged and queued nothing commits without a record or a
// force: nothing of it is in the log to resolve, and it runs the abort hook,
// not the commit hook: it published nothing.
//
// A commit whose record the log refuses, or whose force fails, did not
// happen. An active transaction is rolled back — after a failed force its
// abort record follows the commit record and re-anchors every page the commit
// named, which undoes the commit for every reader of page history
// (wal.ReplayPages) — and ended whatever the rollback manages: unpublished,
// locks released, out of the table. A prepared one stays prepared, for its
// coordinator to deliver the decision again. A page write that fails after
// the force does not undo the commit: the page goes to the manager's repair
// (SetRepair) before the locks release, and Commit returns what the repair
// answers.
func (t *Tx) Commit() error {
	if err := t.Publish(); err != nil {
		return err
	}
	return t.Finish()
}

// Publish is Commit up to its publication: the commit record is appended and
// forced, and the commit hook has run — or, for a transaction with nothing to
// log, the abort hook. On nil the commit stands, and the caller must call
// Finish, which writes its pages and releases its locks; on an error it did
// not happen (Commit), and there is nothing to finish.
func (t *Tx) Publish() error {
	m := t.m
	prepared := t.State() == Prepared
	lsn, err := t.logEnd(Committed, wal.TCommit, nil)
	if errors.Is(err, ErrNotActive) {
		return err
	}
	if err != nil {
		return t.unforced(prepared, err)
	}
	if lsn != 0 {
		if err := m.log.Flush(lsn); err != nil {
			return t.unforced(prepared, err)
		}
	}
	t.mu.Lock()
	t.commitLSN = lsn
	t.mu.Unlock()
	if lsn != 0 {
		// Version-store publication order: the hook advances the version
		// clock and publishes the committed images in one step, while this
		// writer's X locks still exclude any concurrent stager of the same
		// segments; the pages are written after it (Finish), and then the
		// locks release.
		if h := m.commitHook; h != nil {
			h(t.id, lsn)
		}
	} else if h := m.abortHook; h != nil {
		// What it staged with the version store was left unchanged.
		h(t.id)
	}
	return nil
}

// Finish ends a commit Publish published: it writes the pages t's changes
// deferred to it (writeBack), runs the written hook, releases t's locks and
// retires it, and returns what the write-back answers.
func (t *Tx) Finish() error {
	m := t.m
	t.mu.Lock()
	lsn := t.commitLSN
	t.mu.Unlock()
	var werr error
	if lsn != 0 {
		werr = t.writeBack(lsn)
		if h := m.writtenHook; h != nil {
			h(t.id)
		}
	}
	t.finish()
	m.fire(hooks.EvTxCommit, t.id)
	m.mu.Lock()
	m.commits++
	m.mu.Unlock()
	return werr
}

// unforced ends a commit whose record was not appended or not forced
// (Commit): t goes back to what it was, and an active transaction is rolled
// back.
func (t *Tx) unforced(prepared bool, cause error) error {
	t.mu.Lock()
	t.state = Active
	if prepared {
		t.state = Prepared
	}
	t.mu.Unlock()
	if prepared {
		return cause
	}
	if err := t.rollback(false); err != nil {
		// The log refuses the rollback too: end t unpublished all the same.
		if h := t.m.abortHook; h != nil {
			h(t.id)
		}
		t.finish()
	}
	return cause
}

// writeBack writes the pages t's changes deferred to its commit, whose
// record, at commit, is durable: from the images t shipped, on proofs from the
// log's wal.Durable for that commit — each run of pages that lie next to each
// other in their area and in memory (a shipped section, a fresh segment's
// runs) in one write, on the proofs of all its pages — or — t prepared before, or
// restart adopted it — rebuilt by the one replay of page history
// (replayed). The pages whose write fails go to the manager's repair;
// without one, writeBack reports them.
func (t *Tx) writeBack(commit page.LSN) error {
	m := t.m
	t.mu.Lock()
	writes, deferred, mine := t.writes, t.deferred, t.logged
	t.mu.Unlock()
	if !deferred {
		return nil
	}
	defer func() {
		t.mu.Lock()
		t.writes, t.at, t.deferred = nil, nil, false
		t.mu.Unlock()
	}()
	var failed []page.ID
	var cause error
	fail := func(pid page.ID, err error) {
		failed = append(failed, pid)
		if cause == nil {
			cause = err
		}
	}
	d, err := m.log.Durable(t.id, commit)
	if err != nil {
		return err
	}
	if writes == nil {
		if err := m.replayed(mine, fail); err != nil {
			// The branch's history no longer reads (rot in the log): none of
			// its pages can be rebuilt from it, and each is a failed write.
			for _, pid := range t.Pages() {
				fail(pid, err)
			}
		}
	}
	proofs := make([]wal.Logged, len(writes))
	for lo := 0; lo < len(writes); {
		hi, data := lo+1, writes[lo].img
		for hi < len(writes) && follows(writes[hi-1], writes[hi]) {
			data = data[:len(data)+page.Size]
			hi++
		}
		var err error
		for i := lo; i < hi && err == nil; i++ {
			proofs[i], err = d.Proof(writes[i].rec)
		}
		if err == nil {
			err = m.pager.WriteRun(proofs[lo:hi], data)
		}
		if err != nil {
			for _, w := range writes[lo:hi] {
				fail(w.pid, err)
			}
		}
		lo = hi
	}
	if failed == nil {
		return nil
	}
	if m.repair == nil {
		return fmt.Errorf("tx %d: %d page(s) of a durable commit not written: %w", t.id, len(failed), cause)
	}
	return m.repair(failed, cause)
}

// follows reports whether w's page comes right after prev's, both in its area
// and in memory: the two are one run write, with nothing copied to join them.
func follows(prev, w shipped) bool {
	a, b := prev.img, w.img
	return w.pid.Area == prev.pid.Area && w.pid.Page == prev.pid.Page+1 &&
		cap(a) > len(a) && &a[:len(a)+1][len(a)] == &b[0]
}

// replayed writes the pages of a decided branch, whose records are mine (in
// log order, its durable TCommit the last): each page as the replay of the
// log from the branch's first record leaves it, keeping the branch's records
// alone — the mirror of preImages — over what the store holds, on the proof
// of its last change, as restart redo writes a page. The replay hands the
// branch's changes on at its TCommit, which the walk reads only once it is
// durable. fail gets each page whose write fails.
func (m *Manager) replayed(mine []page.LSN, fail func(page.ID, error)) error {
	pages, err := wal.ReplayPages(m.log, mine[0], func(lsn page.LSN, _ *wal.Change) bool {
		_, own := slices.BinarySearch(mine, lsn)
		return own
	}, m.pager.ReadPage)
	if err != nil {
		return err
	}
	ids := make([]page.ID, 0, len(pages))
	for id := range pages {
		ids = append(ids, id)
	}
	sortPages(ids)
	for _, id := range ids {
		if err := m.pager.WriteRun([]wal.Logged{pages[id].Last}, pages[id].Data); err != nil {
			fail(id, err)
		}
	}
	return nil
}

// Abort rolls the transaction back: it drops what t queued — its page writes
// were never done — logs an abort record, forces it, and releases locks. If
// t's changes reached the log (a spill, a prepare, a commit whose force
// failed), the abort record re-anchors every page they named: it carries the
// page, whole, as the log's history of it left it before t's first record
// (preImages) — what t's X locks kept every other writer from changing since.
// Anchors that would pass a log buffer go ahead of it in rollback records
// (logEnd). It is the one rollback there is — a client's abort, a 2PC abort
// decision, a dropped connection and restart's end of a loser all run it. A
// transaction that logged nothing, like its commit, leaves no record.
func (t *Tx) Abort() error { return t.rollback(true) }

// rollback is Abort, which a prepared transaction is open to only when its
// coordinator decided so.
func (t *Tx) rollback(decided bool) error {
	m := t.m
	t.mu.Lock()
	if t.state != Active && (t.state != Prepared || !decided) {
		t.mu.Unlock()
		return ErrNotActive
	}
	// Each page's history before t starts at the anchor t's first change of
	// it found — unless t laid that anchor, and its history before t may lie
	// anywhere in the log.
	var from page.LSN
	laid := false
	pages := make([]page.ID, 0, len(t.dirty))
	for pid, rl := range t.dirty {
		pages = append(pages, pid)
		if len(pages) == 1 || rl < from {
			from = rl
		}
		_, own := slices.BinarySearch(t.logged, rl)
		laid = laid || own
	}
	if laid {
		from = wal.FirstLSN()
	}
	mine := t.logged
	t.writes, t.at, t.queued, t.deferred = nil, nil, 0, false
	t.mu.Unlock()
	if h := m.rollbackHook; h != nil {
		if err := h(t.id); err != nil {
			return fmt.Errorf("tx %d: rollback: %w", t.id, err)
		}
	}
	anchors, err := m.preImages(pages, from, mine)
	if err != nil {
		return fmt.Errorf("tx %d: rollback: %w", t.id, err)
	}
	lsn, err := t.logEnd(Aborted, wal.TAbort, anchors)
	if err != nil {
		return err
	}
	if lsn != 0 {
		if err := m.log.Flush(lsn); err != nil {
			return err
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
	return nil
}

// Prepare logs and forces a prepare record (2PC participant vote), which
// carries the changes t queued, and writes nothing: the pages its changes
// describe wait for a commit decision, which rebuilds them by replaying t's
// records from the log (writeBack) — Prepare lets go of the images the caller
// shipped. The transaction holds its locks until the decision.
func (t *Tx) Prepare() error {
	lsn, err := t.logEnd(Prepared, wal.TPrepare, nil)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.writes, t.at = nil, nil
	t.mu.Unlock()
	return t.m.log.Flush(lsn)
}

// SetCommitHook installs fn to run on every commit, after the commit record
// is durable and before the commit's page writes and the transaction's lock
// release, with the transaction id and its commit LSN (the version stamp): a
// reader fn lets see the commit may find its pages not yet written. Must be
// called before any transaction begins; the hook is read unsynchronized.
func (m *Manager) SetCommitHook(fn func(txID uint64, commitLSN page.LSN)) { m.commitHook = fn }

// SetWrittenHook installs fn to run on every commit the commit hook saw, once
// its page writes have ended (repaired or not) and before its locks release.
// Same registration contract as SetCommitHook.
func (m *Manager) SetWrittenHook(fn func(txID uint64)) { m.writtenHook = fn }

// SetAbortHook installs fn to run on every runtime abort, after its abort
// record is durable and before locks release. Same registration contract as
// SetCommitHook.
func (m *Manager) SetAbortHook(fn func(txID uint64)) { m.abortHook = fn }

// SetRollbackHook installs fn to run as every runtime rollback starts, before
// it reads a page for its re-anchors: what fn writes there is what the
// rollback finds. An error from fn fails the rollback, which leaves t in the
// table. Same registration contract as SetCommitHook.
func (m *Manager) SetRollbackHook(fn func(txID uint64) error) { m.rollbackHook = fn }

// SetRepair installs fn to be given the pages a commit failed to write after
// its force, and the first write's error, before the commit's locks release:
// the commit stands, so fn must rebuild them from the log or take them out of
// service, and what it returns is what Commit returns. Same registration
// contract as SetCommitHook.
func (m *Manager) SetRepair(fn func(pages []page.ID, cause error) error) { m.repair = fn }

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
