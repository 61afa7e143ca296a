// Package prune is the pre-injection pruning engine: given a campaign's
// fault masks and liveness profiles of the fault-free run, it classifies
// provably-dead faults as Masked without simulating them and collapses
// equivalent faults so only one representative per class is simulated.
//
// The soundness argument rests on the differential core of the paper: a
// faulted run is byte-identical to the fault-free run until the first
// access that reads the flipped bit. A transient fault whose next
// covering access is a write is erased before it can influence anything
// (the paper's §III.B overwritten-before-read proof, moved from runtime
// to plan time); one whose entry is invalidated first can never be read
// as live state; one whose bit is never accessed again rides along to a
// completed run with golden output. All three are Masked with certainty.
// Two transient faults of the same bit whose injection cycles fall
// between the same two consecutive covering accesses face identical
// machine state at the first read of the bit, so their runs — and
// verdicts — are identical; simulating one representative decides the
// whole class. That holds whichever checkpoint rung a run restores from:
// a rung is the machine in flight, so a restored run is the boot run
// from the rung on, and the boot profile describes every trajectory.
//
// The engine only ever prunes when the profile proves the outcome; any
// uncertainty (non-transient models, missing profiles, out-of-range
// coordinates) degrades to simulation, never to a wrong verdict.
package prune

import (
	"repro/internal/bitarray"
	"repro/internal/fault"
)

// Action is the planned treatment of one mask.
type Action uint8

const (
	// Simulate runs the mask normally (also the representative of every
	// equivalence class).
	Simulate Action = iota
	// Dead classifies the mask as Masked without simulation.
	Dead
	// Replicate copies the representative's verdict to the mask.
	Replicate
)

// String returns the plan-report name of the action.
func (a Action) String() string {
	switch a {
	case Simulate:
		return "simulate"
	case Dead:
		return "dead"
	case Replicate:
		return "replicate"
	default:
		return "unknown"
	}
}

// Dead-fault reasons, named after the §III.B proofs.
const (
	ReasonOverwritten   = "overwritten"
	ReasonEvicted       = "evicted"
	ReasonNeverAccessed = "never-accessed"
)

// Decision is the plan entry of one mask.
type Decision struct {
	Action Action
	// Reason names the dead proof (Dead only).
	Reason string
	// Rep is the mask index of the simulated representative (Replicate
	// only).
	Rep int
}

// Plan is the pruning plan of one campaign: one decision per mask, in
// mask order, plus the counts the telemetry layer reports.
type Plan struct {
	Decisions  []Decision
	Dead       int
	Replicated int
	Simulated  int
}

// Profiles maps structure name → liveness profile of the fault-free boot
// run.
type Profiles map[string]*bitarray.Profile

// classKey identifies an equivalence class: same bit and the same next
// covering access (by per-entry event index, which pins the
// inter-access interval the injection cycles fall into).
type classKey struct {
	structure string
	entry     int
	bit       int
	event     int
}

// BuildPlan classifies every mask against profiles[0], the liveness
// profile set of the boot run; a nil set degrades every mask to
// Simulate. profiles takes a slice and rungOf is ignored only because
// the benchmark module in bench/ compiles against this signature;
// ROADMAP item 8(a), the change that may touch bench/, removes both.
func BuildPlan(masks []fault.Mask, profiles []Profiles, rungOf []int) *Plan {
	plan := &Plan{Decisions: make([]Decision, len(masks))}
	var ps Profiles
	if len(profiles) > 0 {
		ps = profiles[0]
	}
	seen := make(map[classKey]int)
	for i, m := range masks {
		d := classify(m, ps, i, seen)
		plan.Decisions[i] = d
		switch d.Action {
		case Dead:
			plan.Dead++
		case Replicate:
			plan.Replicated++
		default:
			plan.Simulated++
		}
	}
	return plan
}

// classify decides one mask. seen maps equivalence classes to the index
// of their first (representative) mask.
func classify(m fault.Mask, ps Profiles, idx int, seen map[classKey]int) Decision {
	if ps == nil || len(m.Sites) == 0 {
		return Decision{Action: Simulate}
	}
	allDead := true
	reason := ""
	var liveKey classKey
	for _, s := range m.Sites {
		if s.Model != fault.ModelTransient {
			// Stuck-at windows force the cell across many accesses; the
			// single-interval argument does not apply.
			return Decision{Action: Simulate}
		}
		p := ps[s.Structure]
		if p == nil || s.Entry < 0 || s.Entry >= p.Entries || s.Bit < 0 || s.Bit >= p.BitsPerEntry {
			return Decision{Action: Simulate}
		}
		evIdx, ev, ok := p.NextCovering(s.Entry, s.Bit, s.Cycle)
		switch {
		case !ok:
			if reason == "" {
				reason = ReasonNeverAccessed
			}
		case ev.Kind == bitarray.AccessWrite:
			if reason == "" {
				reason = ReasonOverwritten
			}
		case ev.Kind == bitarray.AccessEvict:
			if reason == "" {
				reason = ReasonEvicted
			}
		default: // read: the fault is live, the run must be simulated
			allDead = false
			liveKey = classKey{structure: s.Structure, entry: s.Entry, bit: s.Bit, event: evIdx}
		}
	}
	if allDead {
		return Decision{Action: Dead, Reason: reason}
	}
	// Equivalence collapse applies only to single-site masks: with several
	// sites the combination of intervals would have to match, which the
	// per-site keys do not capture.
	if len(m.Sites) != 1 {
		return Decision{Action: Simulate}
	}
	if rep, ok := seen[liveKey]; ok {
		return Decision{Action: Replicate, Rep: rep}
	}
	seen[liveKey] = idx
	return Decision{Action: Simulate}
}
