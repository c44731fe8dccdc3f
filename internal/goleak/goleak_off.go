//go:build !invariants

package goleak

// Enabled reports whether spawn tracking is compiled in.
const Enabled = false

// Without the invariants tag there is no registry.
func track(string) uint64 { return 0 }
func untrack(uint64)      {}

// Check is a no-op without the invariants tag.
func Check(t TB, prefixes ...string) {}

// Live reports no sites without the invariants tag.
func Live(prefixes ...string) []string { return nil }
