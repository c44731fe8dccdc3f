// Package goleak is the runtime counterpart of bess-vet's golife analyzer:
// a build-tagged goroutine-leak tracker in the mold of internal/lockcheck.
//
// Production code spawns long-lived goroutines through Go(name, fn) instead
// of a bare `go` statement. Without the `invariants` build tag the wrapper
// compiles to a plain `go fn()` and the tracker costs nothing. With
// `-tags invariants` every spawn is registered under its site label until the
// goroutine returns, and tests assert teardown with
//
//	goleak.Check(t)                    // no tracked goroutine may be live
//	goleak.Check(t, "server.")         // none matching the prefixes may be
//
// Check polls briefly (teardown is often signalled just before the spawned
// function returns) and then fails the test naming every still-live site,
// so a leak reads as "rpc.dispatch x3", not as an opaque goroutine dump.
package goleak

// TB is the subset of testing.TB that Check needs. Declaring it here keeps
// the production packages that import goleak free of a testing dependency.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}
