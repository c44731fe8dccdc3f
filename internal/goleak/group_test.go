package goleak

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGoAfterStopRunsNothing(t *testing.T) {
	var g Group
	g.Stop() // a group that never started anything stops too
	var ran atomic.Bool
	if g.Go("test.late", func(<-chan struct{}) { ran.Store(true) }) {
		t.Fatal("Go after Stop reported true")
	}
	if GoWith(&g, "test.late", func(int) { ran.Store(true) }, 1) {
		t.Fatal("GoWith after Stop reported true")
	}
	g.Stop()
	if ran.Load() {
		t.Fatal("Go after Stop ran its task")
	}
}

// Halt refuses new tasks at once but waits for none: the running task is
// joined by the Stop after it.
func TestHaltRefusesWithoutWaiting(t *testing.T) {
	var g Group
	release := make(chan struct{})
	var got, exited atomic.Int64
	if !GoWith(&g, "test.held", func(n int64) { got.Store(n); <-release; exited.Store(1) }, 7) {
		t.Fatal("GoWith on a fresh group refused")
	}
	g.Halt()
	if g.Go("test.late", func(<-chan struct{}) {}) || GoWith(&g, "test.late", func(int64) {}, 0) {
		t.Fatal("a halted group admitted a task")
	}
	close(release)
	g.Stop()
	if got.Load() != 7 || exited.Load() != 1 {
		t.Fatalf("task saw %d, exited %d: want its argument 7, joined by Stop", got.Load(), exited.Load())
	}
	Check(t, "test.")
}

func TestStopClosesStopAndJoins(t *testing.T) {
	var g Group
	var exited atomic.Bool
	g.Go("test.waiter", func(stop <-chan struct{}) {
		<-stop
		time.Sleep(5 * time.Millisecond) // Stop must outwait the tail of the task
		exited.Store(true)
	})
	g.Stop()
	if !exited.Load() {
		t.Fatal("Stop returned while a task it admitted was running")
	}
	g.Stop() // idempotent
	Check(t, "test.")
}

// Eight stoppers beside eight spawners: no panic (a WaitGroup would be
// reused here), and no Stop returns while an admitted task is running.
func TestStopBesideGo(t *testing.T) {
	for round := 0; round < 50; round++ {
		var g Group
		var running atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < 8; i++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				<-start
				for g.Go("test.spawned", func(stop <-chan struct{}) {
					<-stop
					running.Add(-1)
				}) {
					// Counted after admission and before the task can end:
					// the task waits for stop, which only Stop closes.
					running.Add(1)
				}
			}()
			go func() {
				defer wg.Done()
				<-start
				runtime.Gosched()
				g.Stop()
				if n := running.Load(); n > 0 {
					t.Errorf("Stop returned with %d admitted task(s) running", n)
				}
			}()
		}
		close(start)
		wg.Wait()
		if g.Go("test.spawned", func(<-chan struct{}) {}) {
			t.Fatal("Go after Stop reported true")
		}
	}
	Check(t, "test.")
}

// A task that spawns into its own group while Stop is waiting: whichever
// children were admitted are joined, and the first refusal is final.
func TestTaskSpawnsDuringStop(t *testing.T) {
	var g Group
	var live atomic.Int64
	child := func(<-chan struct{}) {
		time.Sleep(time.Millisecond)
		live.Add(-1)
	}
	g.Go("test.parent", func(stop <-chan struct{}) {
		for {
			live.Add(1)
			if !g.Go("test.child", child) {
				live.Add(-1)
				return
			}
			select {
			case <-stop:
			default:
			}
		}
	})
	time.Sleep(2 * time.Millisecond)
	g.Stop()
	if n := live.Load(); n != 0 {
		t.Fatalf("Stop returned with %d child task(s) running", n)
	}
	Check(t, "test.")
}

func TestTaskThatPanicsOrExitsDoesNotWedgeStop(t *testing.T) {
	var g Group
	g.Go("test.panics", func(<-chan struct{}) {
		defer func() { _ = recover() }()
		panic("boom")
	})
	g.Go("test.goexit", func(<-chan struct{}) { runtime.Goexit() })
	done := make(chan struct{})
	go func() { g.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop is wedged behind a task that did not return normally")
	}
	Check(t, "test.")
}

func TestStopWithinReportsStranded(t *testing.T) {
	var g Group
	release := make(chan struct{})
	for i := 0; i < 3; i++ {
		g.Go("test.deaf", func(<-chan struct{}) { <-release }) // ignores stop
	}
	g.Go("test.prompt", func(stop <-chan struct{}) { <-stop })
	if n := g.StopWithin(20 * time.Millisecond); n != 3 {
		t.Fatalf("StopWithin = %d stranded, want 3", n)
	}
	if Enabled {
		if live := Live("test."); len(live) != 3 || live[0] != "test.deaf" {
			t.Fatalf("Live after a bounded stop = %v, want the three stranded tasks", live)
		}
	}
	if g.Go("test.late", func(<-chan struct{}) {}) {
		t.Fatal("Go after StopWithin reported true")
	}
	close(release)
	if n := g.StopWithin(5 * time.Second); n != 0 {
		t.Fatalf("StopWithin after release = %d stranded, want 0", n)
	}
	g.Stop()
	Check(t, "test.")
}
