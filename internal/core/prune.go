package core

import (
	"fmt"
	"sort"

	"repro/internal/bitarray"
	"repro/internal/prune"
)

// CycleSource is implemented by simulators whose current cycle can be
// sampled while they run; the golden-run liveness profiler needs it to
// stamp array accesses. Both simulators implement it. A simulator
// without it simply opts out of pruning — every mask is simulated.
type CycleSource interface {
	CurrentCycle() uint64
}

// LadderRung is one restore point of a checkpoint ladder: the machine in
// flight at the start of Cycle. Rungs are ordered by cycle; an injection
// run restores from the highest rung strictly below its earliest fault
// cycle and is, from there on, the boot run of the same mask.
type LadderRung struct {
	State any
	Cycle uint64
}

// selectRung returns the index of the highest rung whose cycle precedes
// minSite (the run can only restore state captured before its first
// fault applies), or -1 when the run must boot from scratch.
func selectRung(rungs []LadderRung, minSite uint64) int {
	best := -1
	for i, r := range rungs {
		if r.Cycle >= minSite {
			break
		}
		best = i
	}
	return best
}

// makeLadder captures k evenly spaced checkpoints along the fault-free
// run by chaining RunTo on a single machine: rung i is the machine at
// the start of cycle (i+1)/(k+1) of the golden cycle count. Dirty-page
// memory snapshots make every capture after the first a delta of the
// pages touched since the previous rung. Targets that coincide (a tiny
// golden run) or that the program end preempts are dropped; a nil ladder
// falls back to boot-only runs.
func makeLadder(f Factory, golden GoldenInfo, k int) []LadderRung {
	sim := f()
	defer release(sim)
	base, ok := sim.(Checkpointer)
	if !ok || k < 1 {
		return nil
	}
	var rungs []LadderRung
	var last uint64
	for i := 0; i < k; i++ {
		target := golden.Cycles * uint64(i+1) / uint64(k+1) //nolint:gosec // i, k are small positives
		if target == 0 || target <= last {
			continue
		}
		reached, finished, err := base.RunTo(target)
		if err != nil || finished {
			break
		}
		st, err := base.Checkpoint()
		if err != nil {
			break
		}
		rungs = append(rungs, LadderRung{State: st, Cycle: reached})
		last = reached
	}
	return rungs
}

// profileReplay runs one profiled fault-free boot run of a row, with
// liveness profiling on the named structures, and returns the
// per-structure profiles. It returns nil (no error) when the simulator
// cannot be profiled (no CycleSource), which disables pruning rather
// than failing the campaign. The replay must finish like the golden run
// with the golden output: pruning verdicts derive from this trajectory,
// so a divergent replay is an error, not a degradation. Every run —
// booted, or restored from a checkpoint rung — follows this trajectory
// until its fault applies.
func profileReplay(f Factory, structures []string, golden GoldenInfo) (prune.Profiles, error) {
	sim := f()
	defer release(sim)
	cs, ok := sim.(CycleSource)
	if !ok {
		return nil, nil
	}
	arrs := sim.Structures()
	var profiled []*bitarray.Array
	for _, name := range structures {
		if arr, ok := arrs[name]; ok {
			arr.StartProfile(cs.CurrentCycle)
			profiled = append(profiled, arr)
		}
	}
	res := sim.Run(1 << 62)
	if res.Status != RunCompleted {
		return nil, fmt.Errorf("core: profiled replay did not complete: %v (%s)", res.Status, res.AssertMsg)
	}
	if len(res.Events) != 0 {
		return nil, fmt.Errorf("core: profiled replay recorded %d kernel events", len(res.Events))
	}
	if h := hashOutput(res.Output); h != golden.OutputHash {
		return nil, fmt.Errorf("core: profiled replay output %s differs from golden %s", h, golden.OutputHash)
	}
	out := make(prune.Profiles, len(profiled))
	for _, arr := range profiled {
		p := arr.StopProfile()
		out[p.Name] = p
	}
	return out, nil
}

// maskStructures returns the sorted union of structure names targeted by
// any site of any mask of the specs — the arrays a row's profiled
// replay needs to record.
func maskStructures(specs []CampaignSpec) []string {
	set := make(map[string]bool)
	for _, spec := range specs {
		for _, m := range spec.Masks {
			for _, s := range m.Sites {
				set[s.Structure] = true
			}
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sampleVerify picks up to n pruned mask indices of a plan, evenly
// spaced over the pruned masks in mask order — a deterministic sample
// for the -prune-verify differential mode.
func sampleVerify(plan *prune.Plan, n int) []int {
	if plan == nil || n <= 0 {
		return nil
	}
	var pruned []int
	for i, d := range plan.Decisions {
		if d.Action != prune.Simulate {
			pruned = append(pruned, i)
		}
	}
	if len(pruned) <= n {
		return pruned
	}
	out := make([]int, 0, n)
	for j := 0; j < n; j++ {
		out = append(out, pruned[j*len(pruned)/n])
	}
	return out
}
