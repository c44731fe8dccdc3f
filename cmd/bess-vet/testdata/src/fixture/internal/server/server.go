// Package server is a fixture stand-in for bess/internal/server, the package
// of the named unlogged area writers.
package server

import (
	"fixture/internal/area"
	"fixture/internal/wal"
)

// formatSegment is a named writer: a fresh segment's initial image.
func formatSegment(a *area.Area, img []byte) error { return a.WriteRun(0, img) }

type reader struct{ a *area.Area }

// WriteRun writes a run on the proofs it is handed.
func (rd reader) WriteRun(proofs []wal.Logged, data []byte) error {
	return rd.a.WriteRun(proofs[0].Page, data)
}

// rawPager's run write names its run by where it starts, not by its proofs.
type rawPager struct{ a *area.Area }

// WriteRun writes a run and holds no proof.
func (rp rawPager) WriteRun(start int64, data []byte) error {
	return rp.a.WriteRun(start, data) // want areawrite
}

// onePage's run write holds one page's proof, not a run's.
type onePage struct{ a *area.Area }

// WriteRun writes a run on one proof.
func (op onePage) WriteRun(proof wal.Logged, data []byte) error {
	return op.a.WriteRun(proof.Page, data) // want areawrite
}

// storePage writes a page and holds no proof.
func (rd reader) storePage(p int64, data []byte) error {
	return rd.a.WritePage(p, data) // want areawrite
}

// WriteRun is the raw run write a transaction's logged one replaced.
func WriteRun(a *area.Area, start int64, data []byte) error {
	return a.WriteRun(start, data) // want areawrite
}
