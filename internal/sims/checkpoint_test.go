package sims

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestCheckpointRestoreCompletesIdentically: a machine restored from a
// mid-run checkpoint must finish the program exactly like a straight run
// from boot — same result, same cycle count, same statistics down to
// every cache counter — on every tool configuration, or the (sparse)
// checkpoint dropped state the run depends on.
func TestCheckpointRestoreCompletesIdentically(t *testing.T) {
	w, err := workload.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range Tools() {
		factory, err := Factory(tool, w)
		if err != nil {
			t.Fatal(err)
		}
		sim := factory()
		straight := sim.Run(1 << 62)
		straightStats := sim.Stats()
		if straight.Status != core.RunCompleted {
			t.Fatalf("%s: straight run %v", tool, straight.Status)
		}

		ck, ok := factory().(core.Checkpointer)
		if !ok {
			t.Fatalf("%s does not implement Checkpointer", tool)
		}
		reached, finished, err := ck.RunTo(straight.Cycles / 3)
		if err != nil || finished || reached != straight.Cycles/3 {
			t.Fatalf("%s: RunTo(%d): reached=%d finished=%v err=%v", tool, straight.Cycles/3, reached, finished, err)
		}
		cp, err := ck.Checkpoint()
		if err != nil {
			t.Fatalf("%s: checkpoint: %v", tool, err)
		}

		// Restore into three fresh machines, the last after two full runs
		// of the others: the checkpoint must be copied on restore, never
		// mutated by a run.
		for i := 0; i < 3; i++ {
			sim := factory()
			if err := sim.(core.Checkpointer).Restore(cp); err != nil {
				t.Fatalf("%s: restore: %v", tool, err)
			}
			res := sim.Run(1 << 62)
			if !reflect.DeepEqual(res, straight) {
				t.Fatalf("%s: restore %d ends %v at cycle %d after %d instructions, the straight run %v at %d after %d (outputs equal: %v)",
					tool, i, res.Status, res.Cycles, res.Committed, straight.Status, straight.Cycles, straight.Committed, bytes.Equal(res.Output, straight.Output))
			}
			for k, v := range sim.Stats() {
				if straightStats[k] != v {
					t.Errorf("%s: restore %d ends with %s = %d, the straight run with %d", tool, i, k, v, straightStats[k])
				}
			}
		}
	}
}

// TestCheckpointRejectsForeignState: a checkpoint restores only into the
// tool that took it. All three machines share one Checkpoint type, and
// the two GeFIN machines every array geometry as well, so the guard is
// the tool the checkpoint records — a gefin-x86 checkpoint in a gefin-arm
// machine would otherwise run x86 state over an ARM image.
func TestCheckpointRejectsForeignState(t *testing.T) {
	w, _ := workload.ByName("qsort")
	for _, tc := range []struct{ from, into string }{
		{MaFINX86, GeFINX86},
		{GeFINX86, GeFINARM},
		{GeFINARM, GeFINX86},
	} {
		ff, _ := Factory(tc.from, w)
		tf, _ := Factory(tc.into, w)
		m := ff().(core.Checkpointer)
		if _, _, err := m.RunTo(5000); err != nil {
			t.Fatal(err)
		}
		cp, err := m.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if err := tf().(core.Checkpointer).Restore(cp); err == nil {
			t.Errorf("%s accepted a %s checkpoint", tc.into, tc.from)
		}
		if err := ff().(core.Checkpointer).Restore(cp); err != nil {
			t.Errorf("%s rejected its own checkpoint: %v", tc.from, err)
		}
	}
}

// TestCampaignWithCheckpointMatchesOutcomeMix: every campaign restores
// its runs from the row's checkpoint ladder, and records every injection
// exactly as booting it does. core.RunOne, which boots a fresh machine
// per mask, is the reference: a restored run faces the same machine
// state at injection time as the boot run of the same mask, so the
// records — status, output, cycles, committed count — are equal, not
// merely the outcome mix, on every tool and structure kind (register
// file, cache data array, load/store queue).
func TestCampaignWithCheckpointMatchesOutcomeMix(t *testing.T) {
	w, _ := workload.ByName("qsort")
	for _, tool := range Tools() {
		factory, _ := Factory(tool, w)
		golden, err := core.Golden(factory)
		if err != nil {
			t.Fatal(err)
		}
		cache := core.NewGoldenCache()
		for _, structure := range []string{"rf.int", "l1d.data", "lsq.data"} {
			arr := factory().Structures()[structure]
			masks, _ := fault.Generate(fault.GeneratorSpec{
				Structure: structure, Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry(),
				MaxCycle: golden.Cycles, Model: fault.ModelTransient, Count: 8, Seed: 9,
			})
			col := telemetry.New()
			res, err := core.RunConfig(core.CampaignConfig{
				Campaigns: []core.CampaignCell{{Tool: tool, Benchmark: "qsort", Structure: structure, Masks: masks}},
				Workers:   2,
			}, func(string, string) (core.Factory, error) { return factory, nil }, core.Attach{Golden: cache, Telemetry: col})
			if err != nil {
				t.Fatal(err)
			}
			if col.Snapshot().LadderRestores == 0 {
				t.Fatalf("%s × %s: no run restored from a rung", tool, structure)
			}
			for i, m := range masks {
				boot, err := core.RunOne(factory, m, res[0].Golden, 0, true)
				if err != nil {
					t.Fatal(err)
				}
				if got := res[0].Records[i]; !reflect.DeepEqual(got, boot) {
					t.Errorf("%s × %s mask %d: campaign %+v, boot run %+v", tool, structure, m.ID, got, boot)
				}
			}
		}
	}
}
