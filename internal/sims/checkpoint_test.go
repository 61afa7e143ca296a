package sims

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workload"
)

// TestCheckpointRestoreCompletesIdentically: a machine restored from a
// mid-run drained checkpoint must finish the program with exactly the
// output of a straight run — on every tool configuration.
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
		straight := factory().Run(1 << 62)
		if straight.Status != core.RunCompleted {
			t.Fatalf("%s: straight run %v", tool, straight.Status)
		}

		base := factory()
		ck, ok := base.(core.Checkpointer)
		if !ok {
			t.Fatalf("%s does not implement Checkpointer", tool)
		}
		reached, finished, err := ck.RunTo(straight.Cycles / 3)
		if err != nil || finished {
			t.Fatalf("%s: RunTo: reached=%d finished=%v err=%v", tool, reached, finished, err)
		}
		if reached < straight.Cycles/3 {
			t.Fatalf("%s: reached %d < target %d", tool, reached, straight.Cycles/3)
		}
		cp, err := ck.Checkpoint()
		if err != nil {
			t.Fatalf("%s: checkpoint: %v", tool, err)
		}

		// The machine the checkpoint was taken on runs on: a restored
		// machine must be that continuation exactly — same cycle count,
		// same statistics down to every cache counter — or the (sparse)
		// checkpoint dropped state the run depends on.
		cont := base.Run(1 << 62)
		contStats := base.Stats()

		// Restore into two fresh machines: both must complete with the
		// straight-run output, and identically to each other.
		var restored []core.RunResult
		for i := 0; i < 2; i++ {
			sim := factory()
			if err := sim.(core.Checkpointer).Restore(cp); err != nil {
				t.Fatalf("%s: restore: %v", tool, err)
			}
			res := sim.Run(1 << 62)
			if res.Status != cont.Status || res.Cycles != cont.Cycles || res.Committed != cont.Committed || !bytes.Equal(res.Output, cont.Output) {
				t.Fatalf("%s: restored run ends %v at cycle %d after %d instructions, the continued run %v at %d after %d",
					tool, res.Status, res.Cycles, res.Committed, cont.Status, cont.Cycles, cont.Committed)
			}
			for k, v := range sim.Stats() {
				if contStats[k] != v {
					t.Errorf("%s: restored run ends with %s = %d, the continued run with %d", tool, k, v, contStats[k])
				}
			}
			if res.Status != core.RunCompleted {
				t.Fatalf("%s: restored run %v (%s)", tool, res.Status, res.AssertMsg)
			}
			if !bytes.Equal(res.Output, straight.Output) {
				t.Fatalf("%s: restored output differs from straight run", tool)
			}
			restored = append(restored, res)
		}
		if restored[0].Cycles != restored[1].Cycles {
			t.Fatalf("%s: restores not deterministic: %d vs %d cycles",
				tool, restored[0].Cycles, restored[1].Cycles)
		}
		// The checkpoint must also not mutate when restored (deep copy):
		// a third restore after two full runs must still work.
		sim := factory()
		if err := sim.(core.Checkpointer).Restore(cp); err != nil {
			t.Fatal(err)
		}
		if res := sim.Run(1 << 62); !bytes.Equal(res.Output, straight.Output) {
			t.Fatalf("%s: checkpoint state was mutated by earlier restores", tool)
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

// TestCampaignWithCheckpointMatchesOutcomeMix: a checkpointed campaign
// classifies the same way as a boot-run campaign at the aggregate level
// (identical masks, the same machine state at injection time for every
// fault past the checkpoint would be ideal; we assert the golden output
// check still holds and every record lands in a defined state).
func TestCampaignWithCheckpointMatchesOutcomeMix(t *testing.T) {
	w, _ := workload.ByName("qsort")
	factory, _ := Factory(GeFINX86, w)
	golden, err := core.Golden(factory)
	if err != nil {
		t.Fatal(err)
	}
	sim := factory()
	arr := sim.Structures()["rf.int"]
	masks, _ := fault.Generate(fault.GeneratorSpec{
		Structure: "rf.int", Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry(),
		MaxCycle: golden.Cycles, Model: fault.ModelTransient, Count: 24, Seed: 9,
	})
	run := func(useCP bool) core.Breakdown {
		res, err := core.RunConfig(core.CampaignConfig{
			Campaigns:     []core.CampaignCell{{Tool: GeFINX86, Benchmark: "qsort", Structure: "rf.int", Masks: masks}},
			UseCheckpoint: useCP, Workers: 2,
		}, func(string, string) (core.Factory, error) { return factory, nil }, core.Attach{})
		if err != nil {
			t.Fatal(err)
		}
		return core.Parser{}.ParseAll(res[0].Records)
	}
	plain := run(false)
	ckpt := run(true)
	if plain.Total != ckpt.Total {
		t.Fatalf("totals differ: %d vs %d", plain.Total, ckpt.Total)
	}
	// The masked counts may differ by a run or two at a drained
	// checkpoint boundary, but not wholesale.
	d := plain.Counts[core.ClassMasked] - ckpt.Counts[core.ClassMasked]
	if d < -4 || d > 4 {
		t.Fatalf("checkpointing changed the masked count too much: %v vs %v", plain.Counts, ckpt.Counts)
	}
}
