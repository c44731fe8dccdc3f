// Package area is a fixture stand-in for bess/internal/area: areawrite
// recognizes Area by its name and its package path's suffix.
package area

// Area is a storage area.
type Area struct{ pages [][]byte }

// WritePage writes one page.
func (a *Area) WritePage(p int64, data []byte) error { return a.WriteRun(p, data) }

// WriteRun writes contiguous pages.
func (a *Area) WriteRun(start int64, data []byte) error {
	a.pages = append(a.pages, data)
	return nil
}
