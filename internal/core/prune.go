package core

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
