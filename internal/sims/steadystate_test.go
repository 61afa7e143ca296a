package sims

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestCoreLoopSteadyStateAllocatesNothing: once a golden run is past
// warm-up (queues and scratch buffers at their working size, the
// program's pages touched), the per-cycle loop of every tool must not
// heap-allocate at all. One allocation per fetch or per issue scan is
// hundreds of thousands per golden run and a collector running over
// every worker's cycles.
func TestCoreLoopSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const warmup, window = 50_000, 50_000
	w, err := workload.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range Tools() {
		factory, err := Factory(tool, w)
		if err != nil {
			t.Fatal(err)
		}
		sim := factory()
		if res := sim.Run(warmup); res.Status != core.RunCycleLimit {
			t.Fatalf("%s: warm-up ended with %v", tool, res.Status)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := sim.Run(warmup + window)
		runtime.ReadMemStats(&after)
		if res.Status != core.RunCycleLimit || res.Cycles != warmup+window {
			t.Fatalf("%s: measured window ended with %v at cycle %d", tool, res.Status, res.Cycles)
		}
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%s: %d heap allocations over %d steady-state cycles, want 0", tool, n, window)
		}
	}
}
