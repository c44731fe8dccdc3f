// Package chanflowfix exercises the channel-protocol analyzer: double
// close and send-after-close on a path, and unbuffered sends from a Group.Go
// literal with no select escape.
package chanflowfix

import "fixture/internal/goleak"

var sink int

func compute() int { return sink }

// --- double close and send-after-close, path-sensitively ---

func doubleClose(a bool) {
	ch := make(chan int, 1)
	close(ch)
	if a {
		close(ch) // want chanflow
	}
}

func sendAfterClose() {
	ch := make(chan int, 1)
	close(ch)
	ch <- 1 // want chanflow
}

// exclusiveClose is clean: the closing path returns before the send.
func exclusiveClose(a bool) {
	ch := make(chan int, 1)
	if a {
		close(ch)
		return
	}
	ch <- 1
	close(ch)
}

// remake is clean: reassignment makes the channel a fresh value.
func remake() {
	ch := make(chan int, 1)
	close(ch)
	ch = make(chan int, 1)
	ch <- 1
	close(ch)
}

// closeMany is clean: one close per channel, the loop body walks once.
func closeMany(chans []chan int) {
	for _, ch := range chans {
		close(ch)
	}
}

// loneCase is clean: a switch without a default has a path on which no case
// ran, so the close in its only case is not a close on every path.
func loneCase(n int) {
	ch := make(chan int, 1)
	switch n {
	case 0:
		close(ch)
	}
	ch <- 1
	close(ch)
}

// everyCase closes on every path: the default clause leaves no way around.
func everyCase(n int) {
	ch := make(chan int, 1)
	switch n {
	case 0:
		close(ch)
	default:
		close(ch)
	}
	close(ch) // want chanflow
}

// --- blocked-forever senders: unbuffered sends without a select escape ---

type relay struct {
	g    goleak.Group
	done chan struct{}
}

// Close releases and joins every relay goroutine.
func (r *relay) Close() {
	close(r.done)
	r.g.Stop()
}

func (r *relay) leakySend() chan int {
	ch := make(chan int)
	r.g.Go("relay.leaky", func(<-chan struct{}) {
		ch <- compute() // want chanflow
		<-r.done
	})
	return ch
}

// politeSend is clean: the select's receive case lets the sender escape.
func (r *relay) politeSend() chan int {
	ch := make(chan int)
	r.g.Go("relay.polite", func(<-chan struct{}) {
		select {
		case ch <- compute():
		case <-r.done:
		}
	})
	return ch
}

// bufferedSend is clean: the buffer absorbs the handoff.
func (r *relay) bufferedSend() chan int {
	ch := make(chan int, 1)
	r.g.Go("relay.buffered", func(<-chan struct{}) {
		ch <- compute()
		<-r.done
	})
	return ch
}
