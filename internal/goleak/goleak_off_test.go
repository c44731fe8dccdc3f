//go:build !invariants

package goleak

import (
	"sync"
	"testing"
)

func TestOffModeStillRuns(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled = true without the invariants tag")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	ran := false
	Go("test.site", func() {
		ran = true
		wg.Done()
	})
	wg.Wait()
	if !ran {
		t.Fatal("Go did not run fn")
	}
	if live := Live(); live != nil {
		t.Fatalf("Live = %v, want nil", live)
	}
	Check(t) // must be a no-op
}
