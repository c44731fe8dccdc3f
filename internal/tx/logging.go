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
// Two halves. An update record has a redo half (Off, After: what restart and
// repair copy onto the page) and an undo half (UndoOff, Before: what rollback
// and an as-of rebuild copy back), and each holds only the bytes its reader
// needs.
//
// Which bytes. Both halves of an ordinary record cover [lo, hi), the first
// through the last byte that differ between the page's images, not the page:
// a 128-byte overwrite logs about 130 bytes of before-image and as many of
// after-image.
//
// Anchors. A byte-range redo image only means something on top of the page it
// was cut from, and a torn or rotted page write can leave anything on disk. So
// the first record of a page after Open and after every checkpoint — the
// anchor — carries the whole page as its redo half (Off 0, page.Size bytes),
// and Manager.anchors remembers, per checkpoint epoch, which pages have one and
// at which LSN. CLRs follow the same rule — all of them: restart's undo is
// Tx.Abort like any other (Restart), and nothing else appends one — so every
// redo-able record in the log does. The anchor's undo half stays [lo, hi):
// the two images are equal outside it, so once redo has laid the whole
// after-image down, copying Before back over [lo, hi) leaves exactly the
// before-image — undo never needed the rest, and a changed range of k bytes
// costs an anchor page.Size + k, not two pages.
//
// Zero images. The log stores an image that is all zero as its length
// (internal/wal): filling a page nothing was ever written to logs its
// after-image only, and the CLR that empties it again logs a length. That is
// the codec's rule, not this file's — nothing here knows a page is fresh.
//
// recLSN. A checkpoint lists, for each page an active transaction changed,
// the LSN of the anchor the page had when the transaction first changed it —
// at or before the transaction's first record of the page. Restart redo
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
// record follows the checkpoint's. Appenders hold it shared, Checkpoint holds
// it exclusively around snapshot + reset + append. Nobody holds it across a
// log force.
//
// The rule assumes what the server guarantees: a page that has been logged
// is never again written without a record (unlogged initial images and raw
// runs only ever precede a page's first record).

// LogUpdate appends the update record for pid changing from before to after,
// both whole-page images, and returns the record's proof, which is what the
// page store takes to write the page (wal.Pager) — the zero proof, with no
// record, when the images are equal. The log is forced no later than the
// transaction's commit or prepare.
func (t *Tx) LogUpdate(pid page.ID, before, after []byte) (wal.Logged, error) {
	if len(before) != page.Size || len(after) != page.Size {
		return wal.Logged{}, fmt.Errorf("tx %d: update of %v: images of %d and %d bytes, want whole pages",
			t.id, pid, len(before), len(after))
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
	return t.appendRedo(&wal.Record{Type: wal.TUpdate, Tx: t.id, Page: pid}, before, after, lo, hi)
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
	m.epoch.RLock()
	t.mu.Lock()
	clr, err := t.appendRedo(&wal.Record{Type: wal.TCLR, Tx: t.id, Page: rec.Page, UndoNext: rec.PrevLSN}, nil, buf, lo, hi)
	t.mu.Unlock()
	m.epoch.RUnlock()
	if err != nil {
		return err
	}
	return m.pager.WritePage(clr, buf)
}

// appendRedo appends rec, an update or CLR of rec.Page that leaves the page
// holding img and changes img[lo:hi] (from before[lo:hi]; nil for a CLR,
// which has no undo image). The undo half is that range. Under the anchor
// rule the redo half is the same range if the page has an anchor in this
// checkpoint epoch, and the whole page — becoming the anchor — if not. The
// caller holds m.epoch shared and t.mu.
func (t *Tx) appendRedo(rec *wal.Record, before, img []byte, lo, hi int) (wal.Logged, error) {
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
		return wal.Logged{}, err
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
	return rec.Logged(), nil
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
// active or prepared changed, with their recLSNs — starts a new anchor epoch,
// and forces the log. Which transactions are open restart reads off their own
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
		// in the log already, ahead of this checkpoint's.
		if t.state == Active || t.state == Prepared {
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
