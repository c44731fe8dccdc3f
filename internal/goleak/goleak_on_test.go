//go:build invariants

package goleak

import (
	"strings"
	"testing"
	"time"
)

type fakeTB struct{ msgs []string }

func (f *fakeTB) Helper() {}
func (f *fakeTB) Errorf(format string, args ...any) {
	f.msgs = append(f.msgs, strings.ReplaceAll(format, "%", "")+join(args))
}

func join(args []any) string {
	var b strings.Builder
	for _, a := range args {
		b.WriteString(" ")
		if s, ok := a.(string); ok {
			b.WriteString(s)
		}
	}
	return b.String()
}

func TestGoTracksAndClears(t *testing.T) {
	var g Group
	release := make(chan struct{})
	g.Go("test.blocked", func(<-chan struct{}) { <-release })
	if live := Live("test."); len(live) != 1 || live[0] != "test.blocked" {
		t.Fatalf("Live = %v, want [test.blocked]", live)
	}
	close(release)
	g.Stop()
	if live := Live("test."); len(live) != 0 {
		t.Fatalf("Live after Stop = %v, want empty", live)
	}
}

func TestCheckReportsLeakBySite(t *testing.T) {
	old := checkBudget
	checkBudget = 50 * time.Millisecond
	defer func() { checkBudget = old }()

	var g Group
	release := make(chan struct{})
	g.Go("test.leak", func(<-chan struct{}) { <-release })
	g.Go("test.leak", func(<-chan struct{}) { <-release })

	var f fakeTB
	Check(&f, "test.leak")
	if len(f.msgs) != 1 || !strings.Contains(f.msgs[0], "test.leak x2") {
		t.Fatalf("Check reported %q, want one message naming test.leak x2", f.msgs)
	}

	// A prefix that matches nothing passes even while the leak is live.
	var h fakeTB
	Check(&h, "other.")
	if len(h.msgs) != 0 {
		t.Fatalf("prefix-filtered Check reported %q, want none", h.msgs)
	}

	close(release)
	g.Stop()
	Check(t, "test.leak")
}

// TestCheckWaitsForTheGoroutineToEnd: a goroutine still running when Check
// starts, which ends well inside the budget, passes, and Check returns when
// it ends, not when the budget runs out.
func TestCheckWaitsForTheGoroutineToEnd(t *testing.T) {
	old := checkBudget
	checkBudget = time.Minute
	defer func() { checkBudget = old }()

	var g Group
	release := make(chan struct{})
	g.Go("test.draining", func(<-chan struct{}) { <-release })
	checked := make(chan []string)
	go func() {
		var f fakeTB
		Check(&f, "test.draining")
		checked <- f.msgs
	}()
	close(release)
	start := time.Now()
	if msgs := <-checked; len(msgs) != 0 {
		t.Fatalf("Check reported %q for a goroutine that ended", msgs)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Check took %v to see the goroutine end", d)
	}
	g.Stop()
}
