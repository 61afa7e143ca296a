package sims

import (
	"runtime"
	"testing"

	"repro/internal/bitarray"
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

// TestHeldOpenWindowAllocatesNothing is the RunWindow twin: a detail
// window whose exit rule answers "resident" on every cycle must not
// heap-allocate either. Two faults hold it open and between them walk
// every arm of the rule each cycle: a flip in a valid L1D data line
// (peeked against RAM on MaFIN, against the dirty bit on GeFIN), and a
// flip in the tag of a valid DTLB entry — the entry stops matching, is
// refilled elsewhere, and stays valid, so the program is undisturbed
// and the window can never close.
func TestHeldOpenWindowAllocatesNothing(t *testing.T) {
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
		arrs := sim.Structures()
		var watch []*bitarray.Array
		for _, name := range []string{"l1d.data", "dtlb.tag"} {
			a := arrs[name]
			entry := -1
			for e := 0; e < a.Entries() && entry < 0; e++ {
				if a.EntryValid(e) {
					entry = e
				}
			}
			if entry < 0 {
				t.Fatalf("%s: no valid %s entry after warm-up", tool, name)
			}
			a.Arm(bitarray.Fault{Kind: bitarray.Transient, Entry: entry, Bit: 9, Start: warmup})
			watch = append(watch, a)
		}
		sim.WatchArrays(watch)
		sim.SetEarlyStop(false)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, exited := sim.(core.Windower).RunWindow(warmup+window, 0)
		runtime.ReadMemStats(&after)
		if exited || res.Status != core.RunCycleLimit || res.Cycles != warmup+window {
			t.Fatalf("%s: window not held to the limit: exited=%v status %v at cycle %d", tool, exited, res.Status, res.Cycles)
		}
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%s: %d heap allocations over %d cycles of a held-open window, want 0", tool, n, window)
		}
	}
}
