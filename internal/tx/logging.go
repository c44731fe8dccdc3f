package tx

import (
	"encoding/binary"
	"fmt"
	"sort"

	"bess/internal/page"
	"bess/internal/wal"
)

// What the log holds for a page change — the one place that decides it.
//
// A redo half, and nothing else. Every page change is a TRedo record (LogRedo):
// a client's commit or prepare, the server's whole write set at the moment
// the transaction ends, and a large object's content, logged in the middle of
// its transaction (server.StoreLarge). Its page is written after the
// transaction's commit record is durable (Commit, writeBack) and never
// before: the write takes a proof only a wal.Durable can make, and the log
// mints one only once its flushed frontier covers the commit record. So
// nothing on a page ever needs taking back — there is no undo half, no
// compensation record, no undo pass — and a rollback only forgets what it
// logged (Tx.rollback).
//
// Which bytes. The redo half covers [lo, hi), the first through the last byte
// that differ between the page's images, not the page: a 128-byte overwrite
// logs about 130 bytes.
//
// Anchors. A byte-range redo image only means something on top of the page it
// was cut from, and a torn or rotted page write can leave anything on disk. So
// a page's first record after Open — the anchor — carries the whole page as
// its redo half (Off 0, page.Size bytes), and Manager.anchors remembers which
// pages have one and at which LSN: one entry per page written since Open. A
// checkpoint does not touch it; the anchor is part of the page's history. An
// anchor that is rolled back anchors nothing (its page was never written):
// rollback forgets the anchors its transaction laid, and the page's next
// writer lays one down again.
//
// Zero images. The log stores an image that is all zero as its length
// (internal/wal): filling a page nothing was ever written to logs its
// after-image, zeroing one logs a length. That is the codec's rule, not this
// file's — nothing here knows a page is fresh.
//
// recLSN. A checkpoint lists, for each page an active or prepared transaction
// changed — or a committed one whose page writes are not done — the LSN of
// the anchor the page had when the transaction first changed it. Restart
// rebuilds the pages the checkpoint lists and those the log changes after it,
// each from its latest committed anchor, which analysis finds in the log
// (wal.Analyze) wherever it lies, before the checkpoint or after it: replay
// starts from a whole image, and wal.RecoveryStats.UnanchoredPages stays 0.
// Repair by log replay (server.repairRange) gets the same guarantee from the
// log's very first record of the page.
//
// Atomicity. Manager.epoch guards the dirty-page table, which lists a
// transaction's pages exactly when the transaction's prepare, commit or abort
// record follows the checkpoint's, or its page writes are still to come.
// Appenders hold it shared, Checkpoint holds it exclusively around snapshot +
// append. Nobody holds it across a log force.
//
// The rule assumes what the server guarantees: a page that has been logged
// is never again written without a record (unlogged initial images and raw
// runs only ever precede a page's first record).

// LogRedo appends the redo-only record (wal.TRedo) for pid changing from
// before to after, both whole-page images, and queues the page's write for
// t's commit: nothing is written now, and nothing the caller gets could write
// it — the write waits for the commit record to be durable (writeBack). A page
// t already queued a write for changes from that write's image, not from
// before, and the queued write becomes this one: a commit writes each page
// once. Equal images log and queue nothing. after must stay unchanged until t
// commits or aborts, or until its Prepare returns.
func (t *Tx) LogRedo(pid page.ID, before, after []byte) error {
	if len(before) != page.Size || len(after) != page.Size {
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
	queued := -1
	if _, seen := t.dirty[pid]; seen {
		for i := len(t.writes) - 1; i >= 0; i-- {
			if t.writes[i].rec.Page() == pid {
				queued, before = i, t.writes[i].img
				break
			}
		}
	}
	lo, hi := diffRange(before, after)
	if lo == hi {
		return nil
	}
	rec := &wal.Record{Type: wal.TRedo, Tx: t.id, Page: pid}
	if err := t.appendRedo(rec, after, lo, hi); err != nil {
		return err
	}
	if w := (shipped{rec: rec.Pending(), img: after}); queued >= 0 {
		t.writes[queued] = w
	} else {
		t.writes = append(t.writes, w)
	}
	t.deferred = true
	return nil
}

// appendRedo appends rec, a TRedo of rec.Page that leaves the page holding
// img and changes img[lo:hi]. Under the anchor rule the redo half is that range
// if the page has an anchor, and the whole page — becoming the anchor, which t
// records as laid — if not. The caller holds m.epoch shared and t.mu.
func (t *Tx) appendRedo(rec *wal.Record, img []byte, lo, hi int) error {
	m := t.m
	m.mu.Lock()
	anchor, anchored := m.anchors[rec.Page]
	m.mu.Unlock()
	if !anchored {
		lo, hi = 0, page.Size
	}
	rec.Off, rec.After = uint32(lo), img[lo:hi]
	lsn, err := t.chain(rec)
	if err != nil {
		return err
	}
	if !anchored {
		// Segment locks keep two transactions off one page, so nobody else
		// decided about this page between the lookup and here.
		anchor = lsn
		m.mu.Lock()
		m.anchors[rec.Page] = lsn
		m.mu.Unlock()
		t.laid = append(t.laid, rec.Page)
	}
	if _, ok := t.dirty[rec.Page]; !ok {
		t.dirty[rec.Page] = anchor
	}
	return nil
}

// forget drops the anchors a rolled-back transaction laid on pages: their
// pages were never written, so each page's next writer must anchor it again.
// The anchors are still the transaction's: nothing else anchors a page that
// has one, and its locks kept every other writer off the pages.
func (m *Manager) forget(pages []page.ID) {
	m.mu.Lock()
	for _, pid := range pages {
		delete(m.anchors, pid)
	}
	m.mu.Unlock()
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
	return lsn, nil
}

// logEnd moves t to state to — Prepared, Committed or Aborted — and appends
// the records that say so, the first chained to t's last record, as one step
// with respect to Checkpoint (the epoch lock): a checkpoint's dirty-page table
// then holds t's pages exactly when those records follow the checkpoint's.
// It returns the first record's LSN for the caller to force, outside every
// lock. A transaction that logged nothing ends without a record: LSN 0.
func (t *Tx) logEnd(to State, types ...wal.Type) (page.LSN, error) {
	m := t.m
	m.epoch.RLock()
	defer m.epoch.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != Active && (t.state != Prepared || to == Prepared) {
		return 0, ErrNotActive
	}
	var first page.LSN
	if t.lastLSN != 0 || to == Prepared {
		var err error
		if first, err = t.chain(&wal.Record{Type: types[0], Tx: t.id}); err != nil {
			return 0, err
		}
		for _, typ := range types[1:] {
			if _, err := m.log.Append(&wal.Record{Type: typ, Tx: t.id}); err != nil {
				return 0, err
			}
		}
	}
	t.state = to
	return first, nil
}

// diffRange returns the smallest [lo, hi) holding every byte at which the
// equally long a and b differ; lo == hi when they are equal.
func diffRange(a, b []byte) (lo, hi int) {
	n := len(a)
	le := binary.LittleEndian
	for lo+8 <= n && le.Uint64(a[lo:]) == le.Uint64(b[lo:]) {
		lo += 8
	}
	for lo < n && a[lo] == b[lo] {
		lo++
	}
	if lo == n {
		return 0, 0
	}
	hi = n
	for hi-8 > lo && le.Uint64(a[hi-8:]) == le.Uint64(b[hi-8:]) {
		hi -= 8
	}
	for a[hi-1] == b[hi-1] { // stops at lo at the latest
		hi--
	}
	return lo, hi
}

// Checkpoint writes a fuzzy checkpoint — the pages the transactions still
// active or prepared changed, and those of a committed one whose page writes
// are still to come, with their recLSNs — and forces the log. It leaves the
// anchors as they are. Which transactions are open restart reads off their
// own records (wal.Analyze), not off the checkpoint.
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
	sort.Slice(dp, func(i, j int) bool {
		if dp[i].Page.Area != dp[j].Page.Area {
			return dp[i].Page.Area < dp[j].Page.Area
		}
		return dp[i].Page.Page < dp[j].Page.Page
	})
	lsn, err := m.log.Append(&wal.Record{Type: wal.TCheckpoint, DirtyPages: dp})
	m.epoch.Unlock()
	if err != nil {
		return 0, err
	}
	return lsn, m.log.Flush(lsn)
}
