package torture

import (
	"testing"

	"bess/internal/page"
	"bess/internal/segment"
	"bess/internal/wal"
)

// TestServerCrashTorture kills the server history's process, or its power,
// at every device event after its database exists — among them every event
// of each shipped commit, of the relocating growth into a reserved run, the
// large object, whose commit publishes its content segment, the prepared
// branch and its decision, the commit that publishes three segments (a very
// large object's extent among them), and of the checkpoint — and
// requires every restart to hold the object-level model (srvWorkload). Under
// -short an evenly spaced sample runs. The fault-free run must hold the
// record shapes the enumeration is for.
func TestServerCrashTorture(t *testing.T) {
	w, err := srvWorkload(42)
	if err != nil {
		t.Fatal(err)
	}
	base := w.(*srvWorld)
	if err := base.history(); err != nil {
		t.Fatal(err)
	}
	var prepared uint64
	var checkpoints int
	decided := false
	base.srv.Log().Iterate(wal.FirstLSN(), func(_ page.LSN, r *wal.Record) error {
		switch r.Type {
		case wal.TPrepare:
			prepared = r.Tx
		case wal.TCommit:
			decided = decided || prepared != 0 && r.Tx == prepared
		case wal.TCheckpoint:
			checkpoints++
		}
		return nil
	})
	sl, _, _, err := base.srv.FetchSeg(0, base.keys[1])
	if err != nil {
		t.Fatal(err)
	}
	grown, err := segment.DecodeSlotted(sl)
	base.close()
	if err != nil {
		t.Fatal(err)
	}
	if !decided || checkpoints == 0 || len(base.acked) != 28 || grown.Hdr.DataPages != 4 || len(base.published) != 4 {
		t.Fatalf("fault-free run: branch %d decided %v, %d checkpoints, %d acknowledgements, the grown data section %d pages, %d segments published",
			prepared, decided, checkpoints, len(base.acked), grown.Hdr.DataPages, len(base.published))
	}
	rep, err := crashRun(24, srvWorkload, func(r E13Report) CrashReport { return r.Server })
	if err != nil {
		t.Fatal(err)
	}
	// 147 points: a fresh run goes to disk as one write, not a format and
	// one write per page, so the history has fewer device events than the
	// 158 it had when its writes were pages.
	if rep.Inconsistent != 0 || !rep.Sampled && rep.CrashPoints < 145 {
		t.Fatalf("%d crash points, %d/%d trials inconsistent; first failures: %v",
			rep.CrashPoints, rep.Inconsistent, rep.Trials, rep.Failures)
	}
	t.Logf("%d crash points x %d modes, %d consistent", rep.CrashPoints, len(rep.Modes), rep.Consistent)
}
