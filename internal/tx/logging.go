package tx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"bess/internal/page"
	"bess/internal/wal"
)

// What the log holds for a page change — the one place that decides it.
//
// A redo half, and nothing else, carried by the transaction's commit record.
// Every page change — a client's commit or prepare, the server's whole write
// set at the moment the transaction ends — is queued by LogRedo beside the
// page's image in Tx.writes, and logged when the transaction ends, in its
// TCommit or TPrepare (logEnd): one record, one CRC,
// one transaction id per commit, however many pages it changes. A transaction
// whose queued changes would pass a log buffer (wal.BufSize) logs them ahead,
// in a spill: a multi-page TRedo. Its pages are written after the
// transaction's commit record is durable (Commit, writeBack) and never
// before: the write takes a proof only a wal.Durable can make, and the log
// mints one only once its flushed frontier covers the commit record. So
// nothing on a page ever needs taking back — there is no undo half, no
// compensation record, no undo pass.
//
// Which bytes. A page's change is the runs of bytes that differ between the
// page's images (diffRuns), not the page and not the span from the first of
// them to the last: a run ends where an equal stretch of splitGap bytes or
// more begins, which costs more to log than the next run's own header. A
// 128-byte overwrite logs about 130 bytes, and two objects at the ends of a
// page log their own bytes, not the page between them. A page the transaction
// changes again before its change is logged keeps one entry, whose runs are
// the union of both changes' (union).
//
// Anchors. A byte-range redo image only means something on top of the page it
// was cut from, and a torn or rotted page write can leave anything on disk. So
// a page's first change after Open — the anchor — is logged whole (Off 0,
// page.Size bytes), and Manager.anchors remembers which pages have one and at
// which LSN: one entry per page written since Open, the LSN of the record that
// carried it. LogRedo decides it as it queues a change (the spill bound needs
// the size), by whether the page has an anchor then — which nothing but this
// transaction's own records can change before it ends: segment locks keep
// every other writer off the page. A checkpoint does not touch the anchors;
// the anchor is part of the page's history. A rollback of changes that
// reached the log re-anchors instead (rollback): its TAbort carries the page,
// whole, for every page they named — as the log's history of it leaves it
// without the rolled-back records (preImages), so rot on the disk never
// becomes history — and becomes each one's anchor; anchors past a log buffer
// go ahead of it in TRollback records, which take effect with it. Replay
// then starts from there, whatever the rolled-back records laid down: also
// those of a commit record whose force failed, which may yet reach the disk.
//
// Zero images. The log stores an image that is all zero as its length
// (internal/wal): filling a page nothing was ever written to logs its
// after-image, zeroing one logs a length. That is the codec's rule, not this
// file's — nothing here knows a page is fresh.
//
// recLSN. A checkpoint lists, for each page whose change an active or
// prepared transaction logged — or a committed one whose page writes are not
// done — the LSN of the anchor the page had when that change was logged.
// Changes still queued need no entry: the record that will carry them follows
// the checkpoint's. Restart rebuilds the pages the checkpoint lists and those
// the log changes after it, each from its latest anchor, which analysis finds
// in the log (wal.Analyze) wherever it lies, before the checkpoint or after
// it: replay starts from a whole image, and wal.RecoveryStats.UnanchoredPages
// stays 0. Repair by log replay (server.repairRange) gets the same guarantee
// from the log's very first record of the page.
//
// Atomicity. Manager.epoch guards the dirty-page table, which lists a
// transaction's pages exactly when the transaction's prepare, commit or abort
// record follows the checkpoint's, or its page writes are still to come.
// Appenders hold it shared, Checkpoint holds it exclusively around snapshot +
// append. Nobody holds it across a log force.
//
// The rule assumes what the server guarantees: a page that has been logged
// is never again written without a record. An unlogged initial image (a
// format) precedes a page's first record, or — a rolled-back publish's —
// precedes the abort record that re-anchors the page to it (the rollback
// hook, SetRollbackHook, runs before the rollback reads the page).

// changeOverhead bounds the bytes a page change takes in a record beside its
// images, as its first run: page id, offset and image length; runOverhead
// bounds what each run after it adds: the gap before it and its length, at
// most two bytes each within a page.
const (
	changeOverhead = 24
	runOverhead    = 4
)

// splitGap is the shortest equal stretch that splits a page change's runs: a
// stretch of 4 bytes or more is longer than the header of the run after it —
// 3 bytes at most for a gap under 64 (a one-byte gap, a two-byte length), 4
// for any other — so a split never costs more than the span it replaces.
const splitGap = 4

// run is the bytes [lo, hi) of a page.
type run struct{ lo, hi int }

// whole is the run of a page's every byte: the change of a page with no
// anchor.
var whole = []run{{0, page.Size}}

// runsCost bounds the bytes a page change of runs takes in a record: its
// images and headers; 0 for none.
func runsCost(runs []run) int {
	if len(runs) == 0 {
		return 0
	}
	n := changeOverhead + (len(runs)-1)*runOverhead
	for _, r := range runs {
		n += r.hi - r.lo
	}
	return n
}

// LogRedo queues pid's change from before to after, both whole-page images,
// for t's commit (or prepare) record to carry, and queues the page's write for
// t's commit: nothing is written now, and nothing the caller gets could write
// it — the write waits for the commit record to be durable (writeBack). A page
// t already queued a write for changes from that write's image, not from
// before, and the queued write becomes this one: a commit writes each page
// once. Equal images queue nothing. If the change would take t's queued
// changes past a log buffer, those are logged first, in a spill. after must
// stay unchanged until t commits or aborts, or until its Prepare returns. A
// nil before is a fresh page, one nothing was ever written to: its change is
// its whole after-image, logged whatever it holds, zeros too.
func (t *Tx) LogRedo(pid page.ID, before, after []byte) error {
	if (before != nil && len(before) != page.Size) || len(after) != page.Size {
		return fmt.Errorf("tx %d: update of %v: images of %d and %d bytes, want whole pages",
			t.id, pid, len(before), len(after))
	}
	m := t.m
	m.epoch.RLock()
	defer m.epoch.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != Active {
		return ErrNotActive
	}
	i, seen := t.at[pid]
	var queued []run
	if seen {
		before, queued = t.writes[i].img, t.writes[i].runs
	}
	runs, cost := t.widen(pid, queued, before, after)
	if runs == nil {
		return nil
	}
	if !seen {
		if t.at == nil {
			t.at = make(map[page.ID]int)
		}
		i, t.at[pid] = len(t.writes), len(t.writes)
		t.writes = append(t.writes, shipped{pid: pid})
	}
	w := &t.writes[i]
	if t.queued+cost > wal.BufSize && t.queued > 0 {
		if _, err := t.logQueued(&wal.Record{Type: wal.TRedo, Tx: t.id}); err != nil {
			return err
		}
		// The spill logged every change queued so far, w's with them: what is
		// queued now is the change from there.
		runs, cost = t.widen(pid, nil, before, after)
	}
	w.img, w.runs = after, runs
	t.queued += cost
	t.deferred = true
	return nil
}

// widen returns the runs pid's entry queues once the page changes from before
// to after — the union of the runs it queues already and those that differ,
// or under the anchor rule the whole page if it queues none and the page has
// no anchor, which takes no diff, or if it is fresh (a nil before) — and the
// bytes that adds to t's queue; no runs if the change is none. The caller
// holds t.mu.
func (t *Tx) widen(pid page.ID, queued []run, before, after []byte) ([]run, int) {
	wholly := len(queued) == 1 && queued[0] == whole[0]
	if len(queued) == 0 {
		m := t.m
		m.mu.Lock()
		_, anchored := m.anchors[pid]
		m.mu.Unlock()
		wholly = !anchored
	}
	var runs []run
	switch {
	case before == nil:
		runs = whole
	case wholly:
		if bytes.Equal(before, after) {
			return nil, 0
		}
		runs = whole
	default:
		if runs = diffRuns(before, after); runs == nil {
			return nil, 0
		}
		runs = union(queued, runs)
	}
	return runs, runsCost(runs) - runsCost(queued)
}

// logQueued appends rec, a TRedo, TPrepare or TCommit of t, carrying t's
// queued changes: each page's queued runs of its image, in the order t first
// changed the pages. Then it settles what the record carries (carried) and
// empties the queue. The caller holds m.epoch shared and t.mu.
func (t *Tx) logQueued(rec *wal.Record) (page.LSN, error) {
	for _, w := range t.writes {
		for _, r := range w.runs {
			rec.Changes = append(rec.Changes, wal.Change{Page: w.pid, Off: uint32(r.lo), After: w.img[r.lo:r.hi]})
		}
	}
	lsn, err := t.chain(rec)
	if err != nil {
		return 0, err
	}
	t.carried(rec, lsn)
	k := 0
	for i := range t.writes {
		if w := &t.writes[i]; w.runs != nil {
			k += len(w.runs)
			w.rec, w.runs = rec.Pending(k-1), nil
		}
	}
	t.queued = 0
	return lsn, nil
}

// carried settles the changes rec, t's record at lsn, carries: a whole-page
// one becomes its page's anchor, and each page gets its recLSN — the page's
// anchor as this change found it, or laid — at its first logged change. The
// caller holds m.epoch shared and t.mu.
func (t *Tx) carried(rec *wal.Record, lsn page.LSN) {
	m := t.m
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range rec.Changes {
		c := &rec.Changes[i]
		if c.WholePage() {
			m.anchors[c.Page] = lsn
		}
		if _, ok := t.dirty[c.Page]; !ok {
			t.dirty[c.Page] = m.anchors[c.Page]
		}
	}
}

// chain appends rec as the next record of t's chain: it is the one place a
// record is linked to the transaction's last and the last moved on, both under
// t.mu (which the caller holds), so nobody else holds an LSN that an append
// could leave stale.
func (t *Tx) chain(rec *wal.Record) (page.LSN, error) {
	rec.PrevLSN = t.lastLSN
	lsn, err := t.m.log.Append(rec)
	if err != nil {
		return 0, err
	}
	t.lastLSN = lsn
	t.logged = append(t.logged, lsn)
	return lsn, nil
}

// logEnd moves t to state to — Prepared, Committed or Aborted — and appends
// the record that says so, typ, chained to t's last record, as one step with
// respect to Checkpoint (the epoch lock): a checkpoint's dirty-page table then
// holds t's pages exactly when that record follows the checkpoint's. A TCommit
// or TPrepare carries t's queued changes; a TAbort carries anchors, the
// rollback's re-anchoring of the pages whose changes reached the log — those
// that would take it past a log buffer go ahead of it, in TRollback records
// of at most a buffer each, which take effect with it. It returns the
// record's LSN for the caller to force, outside every lock. A transaction with
// nothing in the log and nothing queued ends without a record: LSN 0.
func (t *Tx) logEnd(to State, typ wal.Type, anchors []wal.Change) (page.LSN, error) {
	m := t.m
	m.epoch.RLock()
	defer m.epoch.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != Active && (t.state != Prepared || to == Prepared) {
		return 0, ErrNotActive
	}
	var lsn page.LSN
	if t.lastLSN != 0 || t.queued > 0 || to == Prepared {
		var err error
		if typ == wal.TAbort {
			lsn, err = t.logAnchors(anchors)
		} else {
			lsn, err = t.logQueued(&wal.Record{Type: typ, Tx: t.id})
		}
		if err != nil {
			return 0, err
		}
	}
	t.state = to
	return lsn, nil
}

// logAnchors appends a rollback's anchors: a TRollback of as many as a log
// buffer holds while the rest would not fit one, then the TAbort with the
// rest. It returns the TAbort's LSN. The caller holds m.epoch shared and t.mu.
func (t *Tx) logAnchors(anchors []wal.Change) (page.LSN, error) {
	for {
		n, size := 0, 0
		for ; n < len(anchors); n++ {
			cost := len(anchors[n].After) + changeOverhead
			if n > 0 && size+cost > wal.BufSize {
				break
			}
			size += cost
		}
		rec := &wal.Record{Type: wal.TRollback, Tx: t.id, Changes: anchors[:n]}
		if n == len(anchors) {
			rec.Type = wal.TAbort
		}
		lsn, err := t.chain(rec)
		if err != nil {
			return 0, err
		}
		t.carried(rec, lsn)
		if rec.Type == wal.TAbort {
			return lsn, nil
		}
		anchors = anchors[n:]
	}
}

// preImages returns each of pages, whole, as the log's history of it leaves
// it without t's records (mine, in log order): the anchors of t's rollback.
// The history is read from from on, which is at or before each page's latest
// anchor before t. A page the log holds no change of but t's is read from the
// store: all it ever held is the image it was given unlogged, which t's X
// locks kept as it was.
func (m *Manager) preImages(pages []page.ID, from page.LSN, mine []page.LSN) ([]wal.Change, error) {
	if len(pages) == 0 {
		return nil, nil
	}
	// Sorted, so that the same history writes the same log bytes.
	sortPages(pages)
	want := make(map[page.ID]bool, len(pages))
	for _, pid := range pages {
		want[pid] = true
	}
	hist, err := wal.ReplayPages(m.log, from, func(lsn page.LSN, c *wal.Change) bool {
		_, own := slices.BinarySearch(mine, lsn)
		return want[c.Page] && !own
	}, m.pager.ReadPage)
	if err != nil {
		return nil, err
	}
	anchors := make([]wal.Change, len(pages))
	for i, pid := range pages {
		anchors[i].Page = pid
		if img := hist[pid]; img != nil {
			anchors[i].After = img.Data
			continue
		}
		anchors[i].After = make([]byte, page.Size)
		if err := m.pager.ReadPage(pid, anchors[i].After); err != nil {
			return nil, fmt.Errorf("re-anchoring %v: %w", pid, err)
		}
	}
	return anchors, nil
}

// diffRuns returns the runs of bytes at which the equally long a and b
// differ, in order: each from a differing byte to a differing byte, holding no
// equal stretch of splitGap bytes or more. It returns nil when a and b are
// equal.
func diffRuns(a, b []byte) []run {
	var runs []run
	for i := nextDiff(a, b, 0); i < len(a); i = nextDiff(a, b, i+1) {
		if k := len(runs) - 1; k >= 0 && i-runs[k].hi < splitGap {
			runs[k].hi = i + 1
		} else {
			if runs == nil {
				runs = make([]run, 0, 4)
			}
			runs = append(runs, run{i, i + 1})
		}
	}
	return runs
}

// nextDiff returns the first offset at or past i at which the equally long a
// and b differ; len(a) if none does. It compares a word at a time.
func nextDiff(a, b []byte, i int) int {
	le := binary.LittleEndian
	for ; i+8 <= len(a); i += 8 {
		if x := le.Uint64(a[i:]) ^ le.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < len(a) && a[i] == b[i] {
		i++
	}
	return i
}

// union returns the runs covering every byte of the runs a and of the runs b,
// in order, merged where less than splitGap bytes lie between them. Those
// bytes belong to neither change, so they are the same before and after both.
func union(a, b []run) []run {
	if len(a) == 0 {
		return b
	}
	out := make([]run, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		var r run
		if len(b) == 0 || len(a) > 0 && a[0].lo <= b[0].lo {
			r, a = a[0], a[1:]
		} else {
			r, b = b[0], b[1:]
		}
		if k := len(out) - 1; k >= 0 && r.lo-out[k].hi < splitGap {
			out[k].hi = max(out[k].hi, r.hi)
		} else {
			out = append(out, r)
		}
	}
	return out
}

// Checkpoint writes a fuzzy checkpoint — the pages whose changes the
// transactions still active or prepared logged, and those of a committed one
// whose page writes are still to come, with their recLSNs — and forces the
// log. It leaves the anchors as they are. Which transactions are open restart
// reads off their own records (wal.Analyze), not off the checkpoint.
func (m *Manager) Checkpoint() (page.LSN, error) {
	m.epoch.Lock()
	m.mu.Lock()
	txs := make([]*Tx, 0, len(m.active))
	for _, t := range m.active {
		txs = append(txs, t)
	}
	m.mu.Unlock()
	recLSN := make(map[page.ID]page.LSN)
	for _, t := range txs {
		t.mu.Lock()
		// A transaction past Active/Prepared has its commit or abort record
		// in the log already, ahead of this checkpoint's; a committed one
		// whose TRedo pages are not written yet needs redo to reach them from
		// here all the same.
		if t.state == Active || t.state == Prepared || t.deferred {
			for pid, lsn := range t.dirty {
				if have, ok := recLSN[pid]; !ok || lsn < have {
					recLSN[pid] = lsn
				}
			}
		}
		t.mu.Unlock()
	}
	dp := make([]wal.CkptPage, 0, len(recLSN))
	for pid, lsn := range recLSN {
		dp = append(dp, wal.CkptPage{Page: pid, RecLSN: lsn})
	}
	// Sorted, so that the same history writes the same log bytes.
	sort.Slice(dp, func(i, j int) bool { return pageLess(dp[i].Page, dp[j].Page) })
	lsn, err := m.log.Append(&wal.Record{Type: wal.TCheckpoint, DirtyPages: dp})
	m.epoch.Unlock()
	if err != nil {
		return 0, err
	}
	return lsn, m.log.Flush(lsn)
}

// pageLess orders page ids by area, then page number.
func pageLess(a, b page.ID) bool {
	if a.Area != b.Area {
		return a.Area < b.Area
	}
	return a.Page < b.Page
}

// sortPages sorts ids by pageLess.
func sortPages(ids []page.ID) {
	sort.Slice(ids, func(i, j int) bool { return pageLess(ids[i], ids[j]) })
}
