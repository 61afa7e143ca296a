package core

import (
	"repro/internal/asm"
	"repro/internal/handoff"
	"repro/internal/interp"
)

// Windower is the optional detail-window capability of a simulator (both
// cycle-accurate cores implement it). The scheduler uses it for sampled
// execution: each injected run simulates cycle-accurately only inside a
// window around its fault and runs on the functional tier everywhere
// else, with architectural state handed across the window edges.
type Windower interface {
	// Image returns the program image the machine was booted with; the
	// scheduler seeds functional-tier machines from it.
	Image() *asm.Image
	// SeedArch loads an architectural state captured on the functional
	// tier into the freshly booted machine. Call it before arming
	// faults.
	SeedArch(st *handoff.State)
	// RunWindow runs like Run, but once every armed fault has settled, a
	// post margin has elapsed and no residual corruption is resident in
	// a cache or TLB, the pipeline drains and it returns exited=true;
	// the caller finishes the run on the functional tier. Terminal
	// outcomes inside the window return exited=false with the result.
	RunWindow(limitCycles, postMargin uint64) (res RunResult, exited bool)
	// CaptureArch snapshots the architectural state of the drained
	// machine for the handoff back to the functional tier.
	CaptureArch() (*handoff.State, error)
}

// windowConfig is the per-run detail-window policy the scheduler hands
// down to runInjection.
type windowConfig struct {
	// pre and post are the margins, in cycles, of cycle-accurate
	// simulation kept before the earliest fault arms and after the last
	// fault settles.
	pre, post uint64
	// noExit keeps the run cycle-accurate after the window entry — the
	// window-verify re-run: it shares the windowed run's exact entry
	// trajectory (rung or functional fast-forward) but never hands off
	// to the functional tail, so any class disagreement indicts the
	// window-exit proof, not the entry.
	noExit bool
	// noDecode runs the functional tier without the predecoded
	// instruction cache (the -no-decode-cache reference behaviour).
	noDecode bool
}

// StatusOfOutcome maps a functional-tier outcome onto the campaign
// outcome taxonomy — the one shared mapping that makes windowed runs
// classify identically to cycle-accurate ones. The functional tier has
// no cycle clock, so its step limit is the cycle-limit (timeout)
// status.
func StatusOfOutcome(o interp.Outcome) RunStatus {
	switch o {
	case interp.Completed:
		return RunCompleted
	case interp.ProcessCrash:
		return RunProcessCrash
	case interp.SystemCrash:
		return RunSystemCrash
	case interp.StepLimit:
		return RunCycleLimit
	default:
		return RunSimCrash
	}
}

// ResultOfInterp converts a functional-tier result into the RunResult
// form the campaign records are built from. The functional tier counts
// instructions, not cycles; Cycles is accounted at one instruction per
// cycle so progress fields stay comparable across tiers.
func ResultOfInterp(r interp.Result) RunResult {
	return RunResult{
		Status:    StatusOfOutcome(r.Outcome),
		ExitCode:  r.ExitCode,
		Output:    r.Output,
		Committed: r.Steps,
		Cycles:    r.Steps,
		Events:    r.Events,
		FatalExc:  r.FatalExc,
	}
}

// windowEntry fast-forwards a run to its detail-window entry on the
// functional tier: the functional model executes the fault-free prefix
// up to the instruction matching the entry cycle (by the golden run's
// average commit rate), and the captured architectural state seeds the
// cycle-accurate machine. With a fast-forward rung ladder the replay
// resumes from the highest memoized rung at or below the entry
// instruction instead of from boot; the functional tier is
// deterministic, so the captured state — and everything downstream of
// it — is identical either way. It reports whether the machine was
// seeded and how many instructions the functional tier executed to get
// there: from the rung it resumed from, not the rung's inherited prefix
// from boot, which no machine of this run executed. A prefix the
// functional model finishes before the entry (or an entry of zero)
// leaves the machine untouched and the caller falls back to a
// checkpoint rung or boot.
func windowEntry(wi Windower, golden GoldenInfo, entry uint64, ff *ffLadder, noDecode bool) (seeded bool, steps uint64) {
	if entry == 0 || golden.Cycles == 0 {
		return false, 0
	}
	entryInstr := entry * golden.Committed / golden.Cycles
	if entryInstr == 0 {
		return false, 0
	}
	fm := ff.machineAt(wi.Image(), entryInstr)
	if fm == nil {
		fm = interp.New(wi.Image())
		if noDecode {
			fm.DisableDecodeCache()
		}
	}
	// Seeded machines inherit the rung's step count, so the remaining
	// slice lands exactly on entryInstr.
	from := fm.Steps()
	fr := fm.Continue(entryInstr - from)
	if fr.Outcome != interp.StepLimit {
		// The program completes (or crashes — impossible fault-free)
		// before the window opens at functional pace: no prefix to skip.
		fm.Release()
		return false, 0
	}
	st := fm.Capture()
	fm.Release()
	// The capture carries the functional tier's step count as its time
	// base; the cycle-accurate machine resumes the golden cycle clock at
	// the window edge so absolute fault cycles keep their meaning.
	st.Cycle = entry
	wi.SeedArch(st)
	return true, fr.Steps - from
}

// windowTail finishes a run that left its detail window on the
// functional tier: the captured architectural state seeds a functional
// machine, which runs under the instruction budget matching the run's
// cycle budget (golden committed count times the timeout factor). Tail
// cycles are accounted at one instruction per cycle on top of the
// capture cycle.
func windowTail(img *asm.Image, st *handoff.State, golden GoldenInfo, timeoutFactor uint64, noDecode bool) (RunResult, uint64) {
	stepBudget := golden.Committed * timeoutFactor
	if st.Committed >= stepBudget {
		// The window itself consumed the whole instruction budget; the
		// run is a timeout without a tail.
		return RunResult{
			Status:    RunCycleLimit,
			ExitCode:  st.Kern.ExitCode,
			Output:    append([]byte(nil), st.Kern.Output...),
			Committed: st.Committed,
			Cycles:    st.Cycle,
			Events:    st.Kern.Events,
		}, 0
	}
	tail := interp.Seed(img, st)
	if noDecode {
		tail.DisableDecodeCache()
	}
	tr := tail.Continue(stepBudget - st.Committed)
	tail.Release()
	tailSteps := tr.Steps - st.Committed
	res := ResultOfInterp(tr)
	res.Cycles = st.Cycle + tailSteps
	return res, tailSteps
}
