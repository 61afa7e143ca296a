package sims

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workload"
)

// keptSim is a simulator the run must not release: core.RunOne hands a
// dead machine back to the boot pools, and the test still reads its
// counters and takes its checkpoint afterwards.
type keptSim struct{ core.Simulator }

func (keptSim) ReleaseMemory() {}

// quietRun is what one injection run leaves: its record, the machine's
// statistics, every array's counters and its end-of-run checkpoint.
type quietRun struct {
	rec      core.LogRecord
	stats    map[string]uint64
	counters map[string][2]uint64
	cp       any
}

// TestQuietPathsMatchFaithful holds the quiet paths to the faithful ones.
// While a faultable array has no fault and no profile attached, the core
// serves it without fetching its bits: fetch replays buffered ITLB and
// L1I hits, tag searches read storage directly, the issue stage walks the
// queue's copies from ready slot to ready slot, and every read is counted
// in bulk. A recording profile
// is the only way onto the faithful path, so each mask runs twice, plain
// and with every array profiled, and the two runs must leave the same
// record, statistics, array counters and end-of-run checkpoint: on every
// tool and both benchmark programs, for faults in the register file, the
// L1D, the issue queue, the L1I and the ITLB. Early stop is off, so every
// run goes on to the end with its faulted structure no longer quiet.
func TestQuietPathsMatchFaithful(t *testing.T) {
	resolve := func(tool, bench string) (core.Factory, error) {
		w, err := workload.ByName(bench)
		if err != nil {
			return nil, err
		}
		return Factory(tool, w)
	}
	structures := []string{"rf.int", "l1d.data", "iq", "l1i.data", "itlb.ppn"}
	var cells []core.CampaignCell
	for _, tool := range Tools() {
		for _, bench := range []string{"qsort", "sha"} {
			for _, s := range structures {
				cells = append(cells, core.CampaignCell{Tool: tool, Benchmark: bench, Structure: s})
			}
		}
	}
	cfg := core.CampaignConfig{Campaigns: cells, Injections: 1, Seed: 11}
	cache := core.NewGoldenCache()
	specs, err := cfg.BuildSpecs(resolve, cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Tool+"/"+spec.Benchmark+"/"+spec.Structure, func(t *testing.T) {
			t.Parallel()
			golden, err := core.Golden(spec.Factory)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range spec.Masks {
				plain := injectKept(t, spec.Factory, m, golden, false)
				faithful := injectKept(t, spec.Factory, m, golden, true)
				if !reflect.DeepEqual(plain.rec, faithful.rec) {
					t.Errorf("mask %d: record %+v, profiled %+v", m.ID, plain.rec, faithful.rec)
				}
				if !reflect.DeepEqual(plain.stats, faithful.stats) {
					t.Errorf("mask %d: statistics %v, profiled %v", m.ID, plain.stats, faithful.stats)
				}
				for _, name := range sortedKeys(plain.counters) {
					if plain.counters[name] != faithful.counters[name] {
						t.Errorf("mask %d: %s reads/writes %v, profiled %v", m.ID, name, plain.counters[name], faithful.counters[name])
					}
				}
				if !reflect.DeepEqual(plain.cp, faithful.cp) {
					t.Errorf("mask %d: end-of-run checkpoints differ", m.ID)
				}
			}
		})
	}
}

// injectKept runs one mask through core.RunOne on a machine it keeps,
// with every array profiled when profiled is set.
func injectKept(t *testing.T, f core.Factory, m fault.Mask, golden core.GoldenInfo, profiled bool) quietRun {
	t.Helper()
	var sim core.Simulator
	rec, err := core.RunOne(func() core.Simulator {
		sim = f()
		if profiled {
			for _, a := range sim.Structures() {
				a.StartProfile(sim.(core.CycleSource).CurrentCycle)
			}
		}
		return keptSim{sim}
	}, m, golden, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	r := quietRun{rec: rec, stats: sim.Stats(), counters: map[string][2]uint64{}}
	for name, a := range sim.Structures() {
		r.counters[name] = [2]uint64{a.Reads(), a.Writes()}
		if profiled {
			a.StopProfile()
		}
	}
	if r.cp, err = sim.(core.Checkpointer).Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sim.(memReleaser).ReleaseMemory()
	return r
}

func sortedKeys(m map[string][2]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
