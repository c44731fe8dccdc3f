//go:build invariants

package goleak

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Enabled reports whether spawn tracking is compiled in.
const Enabled = true

// checkBudget bounds how long Check waits for tracked goroutines to drain
// before reporting them as leaked. Tests (in-package) may shorten it.
var checkBudget = 2 * time.Second

var reg = struct {
	mu   sync.Mutex
	next uint64
	live map[uint64]string // spawn id -> site label
}{live: make(map[uint64]string)}

// Go runs fn on a new goroutine, registered under the site label name until
// fn returns (or panics — the registration is cleared either way, so a
// crashed goroutine does not read as a leak on top of the panic).
func Go(name string, fn func()) {
	reg.mu.Lock()
	reg.next++
	id := reg.next
	reg.live[id] = name
	reg.mu.Unlock()
	go func() {
		defer func() {
			reg.mu.Lock()
			delete(reg.live, id)
			reg.mu.Unlock()
		}()
		fn()
	}()
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
	if len(prefixes) == 0 {
		return true
	}
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// Check fails t if any tracked goroutine (matching the prefixes, when
// given) is still live after a short drain window. The failure names each
// leaked site with its live count.
func Check(t TB, prefixes ...string) {
	t.Helper()
	deadline := time.Now().Add(checkBudget)
	for {
		left := Live(prefixes...)
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goleak: %d tracked goroutine(s) still live: %s",
				len(left), strings.Join(aggregate(left), ", "))
			return
		}
		time.Sleep(2 * time.Millisecond)
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
			out = append(out, sorted[i]+" x"+itoa(n))
		} else {
			out = append(out, sorted[i])
		}
		i = j
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
