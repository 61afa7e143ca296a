package core

import "repro/internal/prune"

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
