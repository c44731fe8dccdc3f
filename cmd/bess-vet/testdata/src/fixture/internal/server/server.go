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

// WritePage writes on the proof it is handed.
func (rd reader) WritePage(proof wal.Logged, data []byte) error {
	return rd.a.WritePage(proof.Page, data)
}

// storePage writes a page and holds no proof.
func (rd reader) storePage(p int64, data []byte) error {
	return rd.a.WritePage(p, data) // want areawrite
}

// WriteRun is the raw run write a transaction's logged one replaced.
func WriteRun(a *area.Area, start int64, data []byte) error {
	return a.WriteRun(start, data) // want areawrite
}
