package tx

import (
	"errors"
	"fmt"

	"bess/internal/page"
	"bess/internal/wal"
)

// Participant is one 2PC participant's interface as seen by a coordinator:
// a BeSS server reachable over RPC, or a local branch.
type Participant interface {
	// Prepare asks the participant to vote on global transaction gid.
	// nil = YES (the participant has forced a prepare record); error = NO.
	Prepare(gid uint64) error
	// Commit delivers the commit decision.
	Commit(gid uint64) error
	// Abort delivers the abort decision.
	Abort(gid uint64) error
}

// ErrVotedNo reports which participant refused to prepare.
type ErrVotedNo struct {
	Index int
	Cause error
}

func (e *ErrVotedNo) Error() string {
	return fmt.Sprintf("tx: participant %d voted no: %v", e.Index, e.Cause)
}

func (e *ErrVotedNo) Unwrap() error { return e.Cause }

// Coordinator drives two-phase commit (paper §3: "the two phase commit (2PC)
// protocol is employed for distributed commits"). The coordinator logs its
// decision before propagating it, so restart can complete in-doubt branches.
type Coordinator struct {
	log *wal.Log // decision log; may be the server's main log
}

// NewCoordinator wires a coordinator to a decision log.
func NewCoordinator(log *wal.Log) *Coordinator {
	return &Coordinator{log: log}
}

// CommitDistributed runs 2PC for gid over the participants. On any NO vote
// or prepare failure, the decision is abort: prepared participants are told
// to roll back. The decision (commit or abort) is logged and forced before
// phase 2.
func (c *Coordinator) CommitDistributed(gid uint64, parts []Participant) error {
	if len(parts) == 0 {
		return errors.New("tx: distributed commit with no participants")
	}
	// Phase 1: collect votes.
	var voteErr error
	prepared := 0
	for i, p := range parts {
		if err := p.Prepare(gid); err != nil {
			voteErr = &ErrVotedNo{Index: i, Cause: err}
			break
		}
		prepared++
	}

	if voteErr != nil {
		// Decision: abort. Presumed abort lets us skip forcing the record,
		// but we log it for the statistics and for audit.
		if _, err := c.log.Append(&wal.Record{Type: wal.TAbort, Tx: gid}); err != nil {
			return err
		}
		_ = c.log.Flush(0)
		for i := 0; i < prepared; i++ {
			_ = parts[i].Abort(gid)
		}
		return voteErr
	}

	// Decision: commit. Force the decision record before phase 2 so a
	// coordinator crash cannot forget a communicated commit.
	lsn, err := c.log.Append(&wal.Record{Type: wal.TCommit, Tx: gid})
	if err != nil {
		return err
	}
	if err := c.log.Flush(lsn); err != nil {
		return err
	}
	// Phase 2: deliver the decision. Failures here leave in-doubt branches
	// that resolve by re-asking the coordinator (the decision is durable).
	var firstErr error
	for i, p := range parts {
		if err := p.Commit(gid); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("tx: participant %d commit delivery: %w", i, err)
		}
	}
	return firstErr
}

// Decision reports the durable outcome recorded for gid: "commit", "abort",
// or "" if no decision was logged (presumed abort). Recovering in-doubt
// participants ask this after a crash.
func (c *Coordinator) Decision(gid uint64) (string, error) {
	if err := c.log.Flush(0); err != nil {
		return "", err
	}
	out := ""
	if err := c.log.Iterate(0, func(_ page.LSN, rec *wal.Record) error {
		if rec.Tx != gid {
			return nil
		}
		switch rec.Type {
		case wal.TCommit:
			out = "commit"
		case wal.TAbort:
			out = "abort"
		}
		return nil
	}); err != nil {
		return "", err
	}
	return out, nil
}
