//go:build invariants

package goleak

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Enabled reports whether spawn tracking is compiled in.
const Enabled = true

// checkBudget bounds how long Check waits for tracked goroutines to drain
// before reporting them as leaked. Tests in this package shorten it.
var checkBudget = 2 * time.Second

var reg = struct {
	mu    sync.Mutex
	next  uint64
	live  map[uint64]string // spawn id -> site label
	ended chan struct{}     // made by a waiting Check, closed by the next untrack
}{live: make(map[uint64]string)}

// track registers a goroutine about to start under the site label name;
// untrack clears it however the goroutine ends.
func track(name string) uint64 {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.next++
	reg.live[reg.next] = name
	return reg.next
}

func untrack(id uint64) {
	reg.mu.Lock()
	delete(reg.live, id)
	if reg.ended != nil {
		close(reg.ended)
		reg.ended = nil
	}
	reg.mu.Unlock()
}

// ending returns a channel the next tracked goroutine to end closes.
func ending() <-chan struct{} {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.ended == nil {
		reg.ended = make(chan struct{})
	}
	return reg.ended
}

// Live returns the site labels of the tracked goroutines currently running,
// one entry per goroutine, sorted. With prefixes, only sites whose label
// starts with one of them are reported.
func Live(prefixes ...string) []string {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	var out []string
	for _, name := range reg.live {
		if matches(name, prefixes) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func matches(name string, prefixes []string) bool {
	return len(prefixes) == 0 ||
		slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(name, p) })
}

// Check fails t if any tracked goroutine (matching the prefixes, when
// given) is still live after a short drain window; it looks again each time a
// tracked goroutine ends. The failure names each leaked site with its live
// count.
func Check(t TB, prefixes ...string) {
	t.Helper()
	budget := time.NewTimer(checkBudget)
	defer budget.Stop()
	for {
		ended := ending() // before looking, so no end goes unseen
		if len(Live(prefixes...)) == 0 {
			return
		}
		select {
		case <-ended:
		case <-budget.C:
			if left := Live(prefixes...); len(left) > 0 {
				t.Errorf("goleak: %d tracked goroutine(s) still live: %s",
					len(left), strings.Join(aggregate(left), ", "))
			}
			return
		}
	}
}

// aggregate folds a sorted label list into "name xN" entries.
func aggregate(sorted []string) []string {
	var out []string
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		if n := j - i; n > 1 {
			out = append(out, sorted[i]+" x"+strconv.Itoa(n))
		} else {
			out = append(out, sorted[i])
		}
		i = j
	}
	return out
}
