package sims

import (
	"bytes"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/asm"
	"repro/internal/asm/progen"
	"repro/internal/core"
	"repro/internal/gem5"
	"repro/internal/interp"
	"repro/internal/marss"
)

// TestSimulatorsMatchReferenceOnRandomPrograms fuzzes both
// microarchitectural simulators against the functional reference model:
// random generated programs must produce identical outputs on the
// MARSS-like core, the Gem5-like core (both ISAs) and the interpreter —
// catching out-of-order bookkeeping bugs (forwarding, speculation,
// recovery) that the fixed workloads might never trip.
func TestSimulatorsMatchReferenceOnRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 3 simulators over a fleet of random programs")
	}
	const programs = 15
	for seed := int64(100); seed < 100+programs; seed++ {
		p := progen.Generate(seed)
		imgC, err := p.Build(asm.TargetCISC)
		if err != nil {
			t.Fatal(err)
		}
		imgR, err := p.Build(asm.TargetRISC)
		if err != nil {
			t.Fatal(err)
		}
		want := interp.Run(imgC, 5_000_000)
		if want.Outcome != interp.Completed {
			t.Fatalf("seed %d reference: %v", seed, want.Outcome)
		}
		runs := map[string]core.RunResult{
			MaFINX86: marss.New(marss.DefaultConfig(), imgC).Run(50_000_000),
			GeFINX86: gem5.New(gem5.DefaultConfig(gem5.ISAX86), imgC).Run(50_000_000),
			GeFINARM: gem5.New(gem5.DefaultConfig(gem5.ISAARM), imgR).Run(50_000_000),
		}
		for tool, res := range runs {
			if res.Status != core.RunCompleted {
				t.Fatalf("seed %d %s: %v (%s)", seed, tool, res.Status, res.AssertMsg)
			}
			if !bytes.Equal(res.Output, want.Output) {
				t.Fatalf("seed %d %s: output diverges from reference", seed, tool)
			}
		}
	}
}

// commitLog records the committed-instruction stream of a run: PC,
// architectural index and commit cycle of every instruction.
type commitLog struct{ commits [][3]uint64 }

func (l *commitLog) Commit(pc, index, cycle uint64) {
	l.commits = append(l.commits, [3]uint64{pc, index, cycle})
}

// FuzzCheckpointRestoreExact: a machine restored from a checkpoint is the
// boot run from the checkpoint on. The fuzz input chooses a generated
// program (asm/progen seed), a tool and the cut as a fraction of the run
// in 65536ths; the machine restored at the cut must end with the boot
// run's result and statistics and commit the same instructions at the
// same cycles from the cut on. The committed corpus holds cuts that catch
// a front-end stall pending and micro-ops waiting in the fetch queue, on
// each tool.
func FuzzCheckpointRestoreExact(f *testing.F) {
	f.Add(int64(100), uint8(0), uint16(32768))
	f.Fuzz(func(t *testing.T, seed int64, tool uint8, cut uint16) {
		tl := tools[int(tool)%len(tools)]
		img, err := progen.Generate(seed).Build(tl.target)
		if err != nil {
			t.Fatal(err)
		}
		run := func(m core.Simulator) (core.RunResult, map[string]uint64, [][3]uint64) {
			var l commitLog
			m.(core.CommitProbed).SetCommitProbe(&l)
			res := m.Run(50_000_000)
			return res, m.Stats(), l.commits
		}
		wantRes, wantStats, wantCommits := run(tl.boot(img))
		if wantRes.Status != core.RunCompleted {
			t.Fatalf("%s seed %d: boot run %v (%s)", tl.name, seed, wantRes.Status, wantRes.AssertMsg)
		}
		at := wantRes.Cycles * uint64(cut) / 65536
		m := tl.boot(img)
		if _, finished, err := m.(core.Checkpointer).RunTo(at); err != nil || finished {
			t.Fatalf("%s seed %d: RunTo(%d): finished=%v err=%v", tl.name, seed, at, finished, err)
		}
		cp, err := m.(core.Checkpointer).Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		r := tl.boot(img)
		if err := r.(core.Checkpointer).Restore(cp); err != nil {
			t.Fatal(err)
		}
		res, stats, commits := run(r)
		if !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("%s seed %d restored at cycle %d: %v at cycle %d after %d instructions, boot run %v at %d after %d",
				tl.name, seed, at, res.Status, res.Cycles, res.Committed, wantRes.Status, wantRes.Cycles, wantRes.Committed)
		}
		if !reflect.DeepEqual(stats, wantStats) {
			t.Fatalf("%s seed %d restored at cycle %d: statistics %v, boot run %v", tl.name, seed, at, stats, wantStats)
		}
		first := sort.Search(len(wantCommits), func(i int) bool { return wantCommits[i][2] >= at })
		if want := wantCommits[first:]; !slices.Equal(commits, want) {
			t.Fatalf("%s seed %d restored at cycle %d: %d commits, boot run %d from the cut on", tl.name, seed, at, len(commits), len(want))
		}
	})
}
