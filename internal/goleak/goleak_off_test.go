//go:build !invariants

package goleak

import "testing"

func TestOffModeTracksNothing(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled = true without the invariants tag")
	}
	var g Group
	release := make(chan struct{})
	g.Go("test.site", func(<-chan struct{}) { <-release })
	if live := Live(); live != nil {
		t.Fatalf("Live = %v, want nil", live)
	}
	Check(t) // must be a no-op, even with a task running
	close(release)
	g.Stop()
}
