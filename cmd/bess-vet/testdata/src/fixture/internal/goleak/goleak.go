// Package goleak is a fixture stand-in for bess/internal/goleak: golife and
// chanflow recognize Group by its name and its package path's suffix.
package goleak

import "time"

// Group owns the goroutines started through it.
type Group struct{}

// Go runs fn on a new goroutine of the group.
func (g *Group) Go(name string, fn func(stop <-chan struct{})) bool { return true }

// Stop stops and joins the group's goroutines.
func (g *Group) Stop() {}

// StopWithin is Stop with a bound.
func (g *Group) StopWithin(d time.Duration) int { return 0 }
