package tx

import (
	"errors"
	"testing"

	"bess/internal/page"
	"bess/internal/wal"
)

// localPart adapts a Manager to the Participant interface, with one branch
// transaction per global id — the shape servers use.
type localPart struct {
	m        *Manager
	pg       *memPager
	pid      page.ID
	val      byte
	branch   *Tx
	failPrep bool

	prepared, committed, aborted int
}

func (p *localPart) Prepare(gid uint64) error {
	if p.failPrep {
		return errors.New("refused")
	}
	p.branch = p.m.Ensure(gid, 0)
	logAt(p.branch, p.pg, p.pid, 0, []byte{p.val})
	p.pg.set(p.pid, 0, []byte{p.val})
	if err := p.branch.Prepare(); err != nil {
		return err
	}
	p.prepared++
	return nil
}

func (p *localPart) Commit(gid uint64) error {
	p.committed++
	return p.branch.Commit()
}

func (p *localPart) Abort(gid uint64) error {
	p.aborted++
	if p.branch == nil {
		return nil
	}
	return p.branch.Abort()
}

func newPart(val byte) *localPart {
	m, pg, _, _ := newEnv()
	return &localPart{m: m, pg: pg, pid: page.ID{Area: 1, Page: 1}, val: val}
}

func TestTwoPCAllYesCommits(t *testing.T) {
	coordLog := wal.NewMem()
	c := NewCoordinator(coordLog)
	p1, p2 := newPart(11), newPart(22)
	if err := c.CommitDistributed(777, []Participant{p1, p2}); err != nil {
		t.Fatal(err)
	}
	if p1.committed != 1 || p2.committed != 1 {
		t.Fatalf("commits = %d/%d", p1.committed, p2.committed)
	}
	if p1.pg.get(p1.pid, 0, 1)[0] != 11 || p2.pg.get(p2.pid, 0, 1)[0] != 22 {
		t.Fatal("branch effects missing")
	}
	d, err := c.Decision(777)
	if err != nil {
		t.Fatal(err)
	}
	if d != "commit" {
		t.Fatalf("decision = %q", d)
	}
}

func TestTwoPCNoVoteAborts(t *testing.T) {
	c := NewCoordinator(wal.NewMem())
	p1 := newPart(11)
	p2 := newPart(22)
	p2.failPrep = true
	err := c.CommitDistributed(888, []Participant{p1, p2})
	var no *ErrVotedNo
	if !errors.As(err, &no) || no.Index != 1 {
		t.Fatalf("err = %v", err)
	}
	// p1 prepared then aborted; its effect is rolled back.
	if p1.aborted != 1 {
		t.Fatalf("p1 aborted = %d", p1.aborted)
	}
	if p1.pg.get(p1.pid, 0, 1)[0] != 0 {
		t.Fatal("aborted branch effect survives")
	}
	if p2.committed != 0 && p2.aborted != 0 {
		t.Fatal("refusing participant got a decision call")
	}
	d, _ := c.Decision(888)
	if d != "abort" {
		t.Fatalf("decision = %q", d)
	}
}

func TestTwoPCNoParticipants(t *testing.T) {
	c := NewCoordinator(wal.NewMem())
	if err := c.CommitDistributed(1, nil); err == nil {
		t.Fatal("empty participant list accepted")
	}
}

func TestTwoPCDecisionSurvivesCoordinatorCrash(t *testing.T) {
	coordLog := wal.NewMem()
	c := NewCoordinator(coordLog)
	p1 := newPart(5)
	if err := c.CommitDistributed(99, []Participant{p1}); err != nil {
		t.Fatal(err)
	}
	// Coordinator crashes; a new one over the durable log still knows.
	revived, err := wal.OpenMemFrom(coordLog.DurableBytes())
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCoordinator(revived)
	d, err := c2.Decision(99)
	if err != nil {
		t.Fatal(err)
	}
	if d != "commit" {
		t.Fatalf("revived decision = %q", d)
	}
	// Unknown gid: presumed abort (no decision record).
	d, _ = c2.Decision(12345)
	if d != "" {
		t.Fatalf("phantom decision %q", d)
	}
}
