// Package golifefix exercises the goroutine-ownership analyzer: a
// goleak.Group held by a struct that no method of it stops is a finding.
package golifefix

import (
	"time"

	"fixture/internal/goleak"
)

var sink int

func work() { sink++ }

// --- a Group in a struct needs a method that stops it ---

// ticker is clean: Close stops the group its start spawns into.
type ticker struct {
	g goleak.Group
}

func (t *ticker) start() {
	t.g.Go("ticker.run", func(stop <-chan struct{}) {
		for {
			select {
			case <-stop:
				return
			default:
				work()
			}
		}
	})
}

// Close stops the ticker.
func (t *ticker) Close() { t.g.Stop() }

// bounded is clean: StopWithin counts as stopping.
type bounded struct {
	tasks *goleak.Group
}

func (b *bounded) close() int { return b.tasks.StopWithin(time.Second) }

// orphan starts goroutines nothing can stop: no method of it calls Stop.
type orphan struct {
	g goleak.Group // want golife
}

func (o *orphan) start() {
	o.g.Go("orphan.run", func(stop <-chan struct{}) { <-stop })
}

// stopOrphan is a function, not a method: it does not make orphan an owner.
func stopOrphan(o *orphan) { o.g.Stop() }

// --- a Group in a call frame is joined where the reader can see it ---

func fanout(n int) {
	var workers goleak.Group
	for i := 0; i < n; i++ {
		workers.Go("fanout.worker", func(<-chan struct{}) { work() })
	}
	workers.Stop()
}
