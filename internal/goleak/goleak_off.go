//go:build !invariants

package goleak

// Enabled reports whether spawn tracking is compiled in.
const Enabled = false

// Go runs fn on a new goroutine. Without the invariants tag there is no
// registry: the name is ignored and the wrapper is a plain go statement.
func Go(name string, fn func()) {
	go fn()
}

// Check is a no-op without the invariants tag.
func Check(t TB, prefixes ...string) {}

// Live reports no sites without the invariants tag.
func Live(prefixes ...string) []string { return nil }
