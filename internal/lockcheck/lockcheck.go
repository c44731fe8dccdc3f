// Package lockcheck provides drop-in replacements for sync.Mutex and
// sync.RWMutex that, when built with the `invariants` tag, validate the
// declared lock hierarchy at runtime: every goroutine's held-lock set is
// tracked, and acquiring a lock whose rank is not strictly greater than
// every ranked lock already held panics with both acquisition sites.
// Recursive acquisition of the same instance — including the subtle
// recursive-RLock case, which deadlocks against a queued writer — also
// panics.
//
// Mutex.AssertHeld states a function's "caller holds m" contract; it panics
// when the calling goroutine does not hold that instance.
//
// Without the tag the wrappers are zero-cost passthroughs: the sync
// primitive is embedded, Init and AssertHeld are empty functions, and no
// per-goroutine state exists.
//
// The rank an Init call names is the hierarchy's one declaration, and this
// package is its one checker (see internal/server/lockorder.go). Lower rank =
// acquired earlier (outermost).
// Rank 0 means unranked — the lock participates in recursion detection but
// not in ordering checks.
package lockcheck

// Rank is a lock's position in the declared hierarchy. A goroutine may only
// acquire a lock whose rank is strictly greater than the rank of every
// ranked lock it already holds. Rank 0 is unranked.
type Rank int
