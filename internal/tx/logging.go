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
// A redo half always, an undo half only for a page written before its
// transaction ends. Every page change has a redo half (Off, After: what
// restart and repair copy onto the page). An undo half (UndoOff, Before: what
// rollback and restart's undo copy back — its only readers; a snapshot read
// never reads the log) is there only for what can need undoing:
//
//   - A shipped image (LogRedo) — a client's commit or prepare, the server's
//     whole write set at the moment the transaction ends — is a TRedo record,
//     redo half only. Its page is written after the transaction's commit
//     record is durable (Commit, writeBack) and never before: the write takes
//     a proof only a wal.Durable can make, and the log mints one only once its
//     flushed frontier covers the commit record. Until then there is nothing
//     on the page to undo, so a rollback writes no CLR for it.
//   - A change written in the middle of a transaction (LogUpdate: the
//     server's CreateLarge, which steals) is a TUpdate with both halves.
//   - A CLR is redo-only too: it re-describes a restore that is itself never
//     undone.
//
// Which bytes. Both halves of an ordinary record cover [lo, hi), the first
// through the last byte that differ between the page's images, not the page:
// a 128-byte overwrite logs about 130 bytes of after-image, and a TUpdate as
// many of before-image.
//
// Anchors. A byte-range redo image only means something on top of the page it
// was cut from, and a torn or rotted page write can leave anything on disk. So
// the first record of a page after Open and after every checkpoint — the
// anchor — carries the whole page as its redo half (Off 0, page.Size bytes),
// and Manager.anchors remembers, per checkpoint epoch, which pages have one and
// at which LSN. CLRs and TRedo records follow the same rule — all of them:
// restart's undo is Tx.Abort like any other (Restart), and nothing else
// appends a CLR — so every redo-able record in the log does. A TRedo anchor
// that is rolled back anchors nothing (its page was never written): rollback
// forgets it, and the page's next writer lays one down again. The anchor's undo
// half stays [lo, hi): the two images are equal outside it, so once redo has
// laid the whole after-image down, copying Before back over [lo, hi) leaves
// exactly the before-image — undo never needed the rest, and a changed range
// of k bytes costs an anchor page.Size + k, not two pages.
//
// Zero images. The log stores an image that is all zero as its length
// (internal/wal): filling a page nothing was ever written to logs its
// after-image only, and the CLR that empties it again logs a length. That is
// the codec's rule, not this file's — nothing here knows a page is fresh.
//
// recLSN. A checkpoint lists, for each page an active or prepared transaction
// changed — or a committed one whose page writes are not done — the LSN of
// the anchor the page had when the transaction first changed it: at or before
// the transaction's first record of the page. Restart redo
// replays a page from its recLSN (wal.Analysis.Redo), and a page first seen after
// the checkpoint from its first record, which the reset below makes an
// anchor: either way replay starts from a whole image, and
// wal.RecoveryStats.UnanchoredPages stays 0. Repair by log replay
// (server.repairRange) gets the same guarantee from the log's very first
// record of the page.
//
// Atomicity. Manager.epoch guards the two things a checkpoint changes or
// records: the anchor reset — "is an anchor due", the append, and the anchors
// update must not straddle it — and the dirty-page table, which lists a
// transaction's pages exactly when the transaction's prepare, commit or abort
// record follows the checkpoint's, or its page writes are still to come.
// Appenders hold it shared, Checkpoint holds it exclusively around snapshot +
// reset + append. Nobody holds it across a log force.
//
// The rule assumes what the server guarantees: a page that has been logged
// is never again written without a record (unlogged initial images and raw
// runs only ever precede a page's first record).

// LogUpdate appends the update record for pid changing from before to after,
// both whole-page images, and returns the record's proof, which is what the
// page store takes to write the page (wal.Pager) — the zero proof, with no
// record, when the images are equal. The record has an undo half: the caller
// may write the page at once, before the transaction ends (steal). The log is
// forced no later than the transaction's commit or prepare.
func (t *Tx) LogUpdate(pid page.ID, before, after []byte) (wal.Logged, error) {
	if err := t.wholePages(pid, before, after); err != nil {
		return wal.Logged{}, err
	}
	lo, hi := diffRange(before, after)
	m := t.m
	m.epoch.RLock()
	defer m.epoch.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != Active {
		return wal.Logged{}, ErrNotActive
	}
	if lo == hi {
		return wal.Logged{}, nil
	}
	rec := &wal.Record{Type: wal.TUpdate, Tx: t.id, Page: pid}
	if err := t.appendRedo(rec, before, after, lo, hi); err != nil {
		return wal.Logged{}, err
	}
	return rec.Logged(), nil
}

// LogRedo appends the redo-only record (wal.TRedo) for pid changing from
// before to after, both whole-page images, and queues the page's write for
// t's commit: nothing is written now, and nothing the caller gets could write
// it — the write waits for the commit record to be durable (writeBack). A page
// t already queued a write for changes from that write's image, not from
// before. Equal images log and queue nothing. after must stay unchanged until
// t commits or aborts, or until its Prepare returns.
func (t *Tx) LogRedo(pid page.ID, before, after []byte) error {
	if err := t.wholePages(pid, before, after); err != nil {
		return err
	}
	m := t.m
	m.epoch.RLock()
	defer m.epoch.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != Active {
		return ErrNotActive
	}
	if _, seen := t.dirty[pid]; seen {
		for i := len(t.writes) - 1; i >= 0; i-- {
			if t.writes[i].rec.Page() == pid {
				before = t.writes[i].img
				break
			}
		}
	}
	lo, hi := diffRange(before, after)
	if lo == hi {
		return nil
	}
	rec := &wal.Record{Type: wal.TRedo, Tx: t.id, Page: pid}
	if err := t.appendRedo(rec, nil, after, lo, hi); err != nil {
		return err
	}
	t.writes = append(t.writes, shipped{rec: rec.Pending(), img: after})
	t.deferred = true
	return nil
}

// wholePages checks that a page change comes as two whole-page images.
func (t *Tx) wholePages(pid page.ID, before, after []byte) error {
	if len(before) != page.Size || len(after) != page.Size {
		return fmt.Errorf("tx %d: update of %v: images of %d and %d bytes, want whole pages",
			t.id, pid, len(before), len(after))
	}
	return nil
}

// undo rolls back one update record of t: it logs the CLR, then restores the
// before-image through the pager on the CLR's proof. buf is page-sized scratch.
func (t *Tx) undo(rec *wal.Record, buf []byte) error {
	m := t.m
	if err := m.pager.ReadPage(rec.Page, buf); err != nil {
		return err
	}
	lo, hi := int(rec.UndoOff), int(rec.UndoOff)+len(rec.Before)
	if hi > len(buf) {
		return fmt.Errorf("tx %d: undo of %v: image [%d, %d) runs past the page", t.id, rec.Page, lo, hi)
	}
	copy(buf[lo:], rec.Before)
	clr := &wal.Record{Type: wal.TCLR, Tx: t.id, Page: rec.Page, UndoNext: rec.PrevLSN}
	m.epoch.RLock()
	t.mu.Lock()
	err := t.appendRedo(clr, nil, buf, lo, hi)
	t.mu.Unlock()
	m.epoch.RUnlock()
	if err != nil {
		return err
	}
	return m.pager.WritePage(clr.Logged(), buf)
}

// forget drops the anchor a rolled-back TRedo record at lsn set: its page was
// never written, so the page's next writer must anchor it again.
func (m *Manager) forget(pid page.ID, lsn page.LSN) {
	m.mu.Lock()
	if m.anchors[pid] == lsn {
		delete(m.anchors, pid)
	}
	m.mu.Unlock()
}

// appendRedo appends rec, an update, TRedo or CLR of rec.Page that leaves the
// page holding img and changes img[lo:hi] (from before[lo:hi]; nil for a
// TRedo or a CLR, which have no undo image). The undo half is that range.
// Under the anchor rule the redo half is the same range if the page has an
// anchor in this checkpoint epoch, and the whole page — becoming the anchor —
// if not. The caller holds m.epoch shared and t.mu.
func (t *Tx) appendRedo(rec *wal.Record, before, img []byte, lo, hi int) error {
	m := t.m
	m.mu.Lock()
	anchor, anchored := m.anchors[rec.Page]
	m.mu.Unlock()
	if before != nil {
		rec.UndoOff, rec.Before = uint32(lo), before[lo:hi]
	}
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
	}
	if _, ok := t.dirty[rec.Page]; !ok {
		t.dirty[rec.Page] = anchor
	}
	return nil
}

// chain appends rec as the next record of t's chain: it is the one place a
// record is linked to the transaction's last and the last moved on, both under
// t.mu (which the caller holds), so nobody else holds an LSN that an append
// could leave stale. A CLR is linked by its UndoNext alone.
func (t *Tx) chain(rec *wal.Record) (page.LSN, error) {
	if rec.Type != wal.TCLR {
		rec.PrevLSN = t.lastLSN
	}
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
// are still to come, with their recLSNs — starts a new anchor epoch, and
// forces the log. Which transactions are open restart reads off their own
// records (wal.Analyze), not off the checkpoint.
func (m *Manager) Checkpoint() (page.LSN, error) {
	m.epoch.Lock()
	m.mu.Lock()
	txs := make([]*Tx, 0, len(m.active))
	for _, t := range m.active {
		txs = append(txs, t)
	}
	m.anchors = make(map[page.ID]page.LSN)
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
