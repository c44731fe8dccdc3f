// Package goleak is how this module starts a goroutine and how it stops one.
//
// A Group is held by whatever its goroutines run against — a peer, a scan
// table, a server, the call frame of a worker pool, main. g.Go(name, fn) runs
// fn(stop) on a new goroutine; g.Stop() closes stop and returns when every
// goroutine the group started has returned. Starting and joining share one
// lock, so a task is either refused or joined: no owner tears its state down
// under a goroutine it did not wait for. bess-vet's golife holds the module
// to it: a `go` statement outside this package is a finding, and so is a
// Group in a struct none of whose methods stops it.
//
// With `-tags invariants` every goroutine is also registered under its name
// until it returns, and goleak.Check(t, prefixes...) fails a test that leaves
// one running, naming each site with its count ("rpc.dispatch x3"). Without
// the tag the registry compiles to nothing.
package goleak

import (
	"sync"
	"time"
)

// TB is the subset of testing.TB that Check needs. Declaring it here keeps
// the production packages that import goleak free of a testing dependency.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// Group owns the goroutines started through it. The zero value is ready to
// use; a Group must not be copied after first use.
type Group struct {
	mu      sync.Mutex
	stop    chan struct{} // made by the first Go, closed by the first Stop
	stopped bool
	running int
	idle    chan struct{} // made by a Stop that must wait; the last task out closes it
}

// Go runs fn on a new goroutine that belongs to the group, labelled name in
// the leak registry. fn returns soon after stop is closed, or after whatever
// else its owner closes before Stop (a connection, a queue). Go reports
// false, and runs nothing, once the group is stopping.
func (g *Group) Go(name string, fn func(stop <-chan struct{})) bool {
	stop, ok := g.admit()
	if ok {
		go run(g, track(name), fn, stop)
	}
	return ok
}

// GoWith is Go for a task that takes one argument and no stop channel (it
// ends once its owner closes what it runs against): arg travels with the
// goroutine rather than in a closure, so an owner that starts a task per
// event allocates no closure per event.
func GoWith[T any](g *Group, name string, fn func(T), arg T) bool {
	_, ok := g.admit()
	if ok {
		go run(g, track(name), fn, arg)
	}
	return ok
}

// admit counts a task in and returns the group's stop channel, or reports
// false once the group is stopping.
func (g *Group) admit() (<-chan struct{}, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stopped {
		return nil, false
	}
	if g.stop == nil {
		g.stop = make(chan struct{})
	}
	g.running++
	return g.stop, true
}

func run[T any](g *Group, id uint64, fn func(T), arg T) {
	// Deferred, so a task that ends in runtime.Goexit is still counted out.
	defer func() {
		untrack(id)
		g.mu.Lock()
		g.running--
		if g.running == 0 && g.idle != nil {
			close(g.idle)
		}
		g.mu.Unlock()
	}()
	fn(arg)
}

// halt closes stop and returns the channel the last task out closes, nil when
// none is running. No task is admitted afterwards, so idle is closed once.
func (g *Group) halt() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.stopped {
		g.stopped = true
		if g.stop != nil {
			close(g.stop)
		}
	}
	if g.running == 0 {
		return nil
	}
	if g.idle == nil {
		g.idle = make(chan struct{})
	}
	return g.idle
}

// Halt refuses every later Go and closes the tasks' stop channel, without
// waiting for them: a Stop after it joins them.
func (g *Group) Halt() { g.halt() }

// Stop closes the tasks' stop channel and returns once every task has
// returned. Idempotent, and safe beside Go and other Stops; a task that stops
// its own group waits for itself.
func (g *Group) Stop() {
	if idle := g.halt(); idle != nil {
		<-idle
	}
}

// StopWithin is Stop with a bound, for an owner whose tasks run code it does
// not control: it reports how many were still running when d ran out. They
// stay members, and tracked; a later Stop still joins them.
func (g *Group) StopWithin(d time.Duration) (stranded int) {
	idle := g.halt()
	if idle == nil {
		return 0
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-idle:
		return 0
	case <-t.C:
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.running
	}
}
