package prune

import (
	"testing"

	"repro/internal/bitarray"
	"repro/internal/fault"
)

// prof builds a single-structure profile set around a fixed event list
// for entry 0 of a 2×128 structure named "s".
func prof(events ...bitarray.ProfileEvent) Profiles {
	return Profiles{"s": bitarray.NewProfile("s", 128, [][]bitarray.ProfileEvent{events, nil})}
}

func mask(id int, cycle uint64) fault.Mask {
	return fault.Mask{ID: id, Sites: []fault.Site{{
		Structure: "s", Entry: 0, Bit: 5, Model: fault.ModelTransient, Cycle: cycle,
	}}}
}

func TestBuildPlanDeadReasons(t *testing.T) {
	ps := prof(
		bitarray.ProfileEvent{Cycle: 10, FirstBit: 0, NBits: 64, Kind: bitarray.AccessWrite},
		bitarray.ProfileEvent{Cycle: 20, FirstBit: 0, NBits: 64, Kind: bitarray.AccessRead},
		bitarray.ProfileEvent{Cycle: 30, FirstBit: 0, NBits: 128, Kind: bitarray.AccessEvict},
	)
	masks := []fault.Mask{
		mask(0, 5),  // write at 10 covers first → overwritten
		mask(1, 25), // evict at 30 is next → evicted
		mask(2, 31), // nothing after 30 → never accessed
		mask(3, 15), // read at 20 is next → live, must simulate
	}
	plan := BuildPlan(masks, []Profiles{ps}, nil)
	wantActions := []Action{Dead, Dead, Dead, Simulate}
	wantReasons := []string{ReasonOverwritten, ReasonEvicted, ReasonNeverAccessed, ""}
	for i, d := range plan.Decisions {
		if d.Action != wantActions[i] || d.Reason != wantReasons[i] {
			t.Errorf("mask %d: %v %q, want %v %q", i, d.Action, d.Reason, wantActions[i], wantReasons[i])
		}
	}
	if plan.Dead != 3 || plan.Simulated != 1 || plan.Replicated != 0 {
		t.Fatalf("counts dead=%d sim=%d rep=%d", plan.Dead, plan.Simulated, plan.Replicated)
	}
}

func TestBuildPlanEquivalenceCollapse(t *testing.T) {
	ps := prof(
		bitarray.ProfileEvent{Cycle: 100, FirstBit: 0, NBits: 64, Kind: bitarray.AccessRead},
		bitarray.ProfileEvent{Cycle: 200, FirstBit: 0, NBits: 64, Kind: bitarray.AccessRead},
	)
	masks := []fault.Mask{
		mask(0, 10),  // first read at 100 → interval A, representative
		mask(1, 90),  // same interval A → replicate of 0
		mask(2, 150), // read at 200 → interval B, representative
		mask(3, 100), // injection cycle == read cycle: still interval A
	}
	plan := BuildPlan(masks, []Profiles{ps}, nil)
	if d := plan.Decisions[0]; d.Action != Simulate {
		t.Fatalf("mask 0: %v", d.Action)
	}
	if d := plan.Decisions[1]; d.Action != Replicate || d.Rep != 0 {
		t.Fatalf("mask 1: %v rep=%d", d.Action, d.Rep)
	}
	if d := plan.Decisions[2]; d.Action != Simulate {
		t.Fatalf("mask 2: %v", d.Action)
	}
	if d := plan.Decisions[3]; d.Action != Replicate || d.Rep != 0 {
		t.Fatalf("mask 3: %v rep=%d", d.Action, d.Rep)
	}
	if plan.Replicated != 2 || plan.Simulated != 2 {
		t.Fatalf("counts sim=%d rep=%d", plan.Simulated, plan.Replicated)
	}
}

func TestBuildPlanClassesIgnoreTheRestorePoint(t *testing.T) {
	// Two masks in one interval collapse whichever rung each run would
	// restore from: a restored run is the boot run from its rung on, so
	// the machine state at the read is the same. The plan reads the boot
	// profile set alone, whatever else it is handed.
	ps := prof(bitarray.ProfileEvent{Cycle: 100, FirstBit: 0, NBits: 64, Kind: bitarray.AccessRead})
	masks := []fault.Mask{mask(0, 10), mask(1, 20)}
	plan := BuildPlan(masks, []Profiles{ps, nil}, []int{-1, 0})
	if d := plan.Decisions[1]; d.Action != Replicate || d.Rep != 0 {
		t.Fatalf("mask 1, in mask 0's interval: %v rep=%d, want a replica of mask 0", d.Action, d.Rep)
	}
}

func TestBuildPlanDegradesToSimulate(t *testing.T) {
	ps := prof(bitarray.ProfileEvent{Cycle: 10, FirstBit: 0, NBits: 64, Kind: bitarray.AccessWrite})
	intermittent := fault.Mask{ID: 0, Sites: []fault.Site{{
		Structure: "s", Entry: 0, Bit: 5, Model: fault.ModelIntermittent, Cycle: 1, Duration: 50,
	}}}
	unknownStructure := fault.Mask{ID: 1, Sites: []fault.Site{{
		Structure: "nope", Entry: 0, Bit: 5, Model: fault.ModelTransient, Cycle: 1,
	}}}
	outOfRange := fault.Mask{ID: 2, Sites: []fault.Site{{
		Structure: "s", Entry: 99, Bit: 5, Model: fault.ModelTransient, Cycle: 1,
	}}}
	empty := fault.Mask{ID: 3}
	masks := []fault.Mask{intermittent, unknownStructure, outOfRange, empty}
	plan := BuildPlan(masks, []Profiles{ps}, nil)
	for i, d := range plan.Decisions {
		if d.Action != Simulate {
			t.Errorf("mask %d: %v, want simulate", i, d.Action)
		}
	}
	// No profile set at all: everything simulates.
	plan = BuildPlan([]fault.Mask{mask(0, 5)}, []Profiles{nil}, nil)
	if plan.Decisions[0].Action != Simulate {
		t.Fatalf("nil profiles: %v", plan.Decisions[0].Action)
	}
}

func TestBuildPlanMultiSite(t *testing.T) {
	ps := prof(
		bitarray.ProfileEvent{Cycle: 10, FirstBit: 0, NBits: 64, Kind: bitarray.AccessWrite},
		bitarray.ProfileEvent{Cycle: 20, FirstBit: 64, NBits: 64, Kind: bitarray.AccessRead},
	)
	site := func(bit int, cycle uint64) fault.Site {
		return fault.Site{Structure: "s", Entry: 0, Bit: bit, Model: fault.ModelTransient, Cycle: cycle}
	}
	allDead := fault.Mask{ID: 0, Sites: []fault.Site{site(5, 1), site(6, 1)}}
	oneLive := fault.Mask{ID: 1, Sites: []fault.Site{site(5, 1), site(70, 1)}}
	plan := BuildPlan([]fault.Mask{allDead, oneLive}, []Profiles{ps}, nil)
	if d := plan.Decisions[0]; d.Action != Dead || d.Reason != ReasonOverwritten {
		t.Fatalf("all-dead multi-site: %v %q", d.Action, d.Reason)
	}
	if d := plan.Decisions[1]; d.Action != Simulate {
		t.Fatalf("live multi-site: %v", d.Action)
	}
	// Two identical live multi-site masks must not collapse (collapse is
	// single-site only).
	twin := fault.Mask{ID: 2, Sites: oneLive.Sites}
	plan = BuildPlan([]fault.Mask{oneLive, twin}, []Profiles{ps}, nil)
	if d := plan.Decisions[1]; d.Action != Simulate {
		t.Fatalf("multi-site twin collapsed: %v", d.Action)
	}
}
