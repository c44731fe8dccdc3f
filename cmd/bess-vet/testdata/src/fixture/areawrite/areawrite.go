// Package areawrite holds an area write outside the server package: the
// named unlogged writers are the server's, whatever a function is called.
package areawrite

import "fixture/internal/area"

// formatSegment is not internal/server's.
func formatSegment(a *area.Area, img []byte) error {
	return a.WriteRun(0, img) // want areawrite
}
