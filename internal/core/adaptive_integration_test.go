package core_test

import (
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sims"
	"repro/internal/telemetry"
)

// profSim is fakeSim plus a cycle source, which makes it profilable —
// the exhaustive census needs the golden liveness profile of the target
// structure.
type profSim struct {
	fakeSim
	cycle uint64
}

func newProfSim() *profSim { return &profSim{fakeSim: *newFakeSim()} }

func (s *profSim) CurrentCycle() uint64 { return s.cycle }

func (s *profSim) Run(limit uint64) core.RunResult {
	const cycles = 100
	out := make([]byte, 8)
	for cyc := uint64(0); cyc < cycles && cyc < limit; cyc++ {
		s.cycle = cyc
		for _, a := range s.watch {
			st := a.Tick(cyc)
			if s.earlyStop && (st == bitarray.StatusOverwritten || st == bitarray.StatusSkippedInvalid) {
				return core.RunResult{Status: core.RunEarlyMasked, Cycles: cyc, Committed: cyc}
			}
		}
		s.arr.WriteUint64(int(cyc%4), cyc)
		out[0] ^= byte(s.arr.ReadUint64(int(cyc % 4)))
	}
	return core.RunResult{Status: core.RunCompleted, Output: out, Cycles: cycles, Committed: cycles}
}

// adaptiveConfig is the shared cell of the early-stopping differentials:
// a margin loose enough (25pp at 99%) that the Wilson rule decides at
// the first boundary regardless of the observed counts — the worst-case
// half-width at n=25 is ~22.9pp — so every test below stops at exactly
// 25 of 60 runs, deterministically.
func adaptiveConfig(tool string) core.CampaignConfig {
	return core.CampaignConfig{
		Campaigns:      []core.CampaignCell{{Tool: tool, Benchmark: "qsort", Structure: "rf.int"}},
		Injections:     60,
		Seed:           7,
		StopMargin:     0.25,
		StopConfidence: 0.99,
		StopCheckEvery: 25,
	}
}

func runAdaptive(t *testing.T, cfg core.CampaignConfig, att core.Attach) *core.CampaignResult {
	t.Helper()
	if att.Golden == nil {
		att.Golden = core.NewGoldenCache()
	}
	results, err := core.RunConfig(cfg, simsResolver(t), att)
	if err != nil {
		t.Fatal(err)
	}
	return results[0]
}

// Criterion (a): on every tool, an early-stopped cell's simulated
// prefix is byte-identical to the same prefix of the fixed-budget run
// (same seed, same mask stream), and its class proportions agree with
// the full-budget estimate within the sum of the two margins.
func TestAdaptiveStopAgreesWithFixedBudget(t *testing.T) {
	for _, tool := range []string{sims.GeFINX86, sims.GeFINARM, sims.MaFINX86} {
		t.Run(tool, func(t *testing.T) {
			cache := core.NewGoldenCache()
			cfg := adaptiveConfig(tool)
			adaptive := runAdaptive(t, cfg, core.Attach{Golden: cache})

			fixed := cfg
			fixed.StopMargin, fixed.StopConfidence, fixed.StopCheckEvery = 0, 0, 0
			full := runAdaptive(t, fixed, core.Attach{Golden: cache})
			if full.Adaptive != nil {
				t.Fatalf("fixed-budget run carries adaptive info: %+v", full.Adaptive)
			}

			a := adaptive.Adaptive
			if a == nil || !a.StoppedEarly {
				t.Fatalf("adaptive cell did not stop early: %+v", a)
			}
			if a.SimulatedRuns != 25 || a.PlannedRuns != 60 {
				t.Fatalf("spend = %d/%d, want 25/60", a.SimulatedRuns, a.PlannedRuns)
			}
			if !(a.EffectiveMargin > 0 && a.EffectiveMargin <= cfg.StopMargin) {
				t.Fatalf("achieved margin %v outside (0, %v]", a.EffectiveMargin, cfg.StopMargin)
			}
			if len(adaptive.Records) != 60 {
				t.Fatalf("records = %d, want the full population of 60", len(adaptive.Records))
			}
			// The simulated prefix is the fixed-budget run's prefix, exactly.
			if !reflect.DeepEqual(adaptive.Records[:25], full.Records[:25]) {
				t.Fatalf("simulated prefix differs from the fixed-budget prefix")
			}
			// The cancelled tail is provenance-only stopped rows over the
			// same masks the fixed run simulated.
			for i, rec := range adaptive.Records[25:] {
				if rec.Status != core.RunStopped.String() {
					t.Fatalf("tail record %d has status %q, want %q", i, rec.Status, core.RunStopped)
				}
				if rec.MaskID != full.Records[25+i].MaskID {
					t.Fatalf("tail record %d settles mask %d, fixed run simulated %d", i, rec.MaskID, full.Records[25+i].MaskID)
				}
				if rec.OutputHash != "" || rec.Cycles != 0 {
					t.Fatalf("stopped row %d carries simulation results: %+v", i, rec)
				}
			}
			// Proportion agreement: both estimate the same population
			// proportion, each within its own margin at 99%.
			p := core.Parser{}
			bStop, bFull := p.ParseAll(adaptive.Records), p.ParseAll(full.Records)
			if bStop.Total != 25 || bFull.Total != 60 {
				t.Fatalf("parsed totals %d/%d, want 25/60 (stopped rows must not count)", bStop.Total, bFull.Total)
			}
			pop := uint64(len(full.Records)) // population floor; real N only widens the fixed margin
			tol := 100 * (a.EffectiveMargin + fault.MarginFor(pop*1000, 60, 0.99))
			for _, cls := range core.Classes {
				d := math.Abs(bStop.Pct(cls) - bFull.Pct(cls))
				if d > tol {
					t.Fatalf("class %s: stopped %.1f%% vs fixed %.1f%% differ by %.1fpp > %.1fpp", cls, bStop.Pct(cls), bFull.Pct(cls), d, tol)
				}
			}
		})
	}
}

// The stop decision must not depend on worker interleaving: 1, 2 and 4
// workers produce identical records, identical adaptive info, and the
// telemetry plane counts the stopped tail once.
func TestAdaptiveStopDeterministicAcrossWorkers(t *testing.T) {
	cache := core.NewGoldenCache()
	var ref *core.CampaignResult
	for _, workers := range []int{1, 2, 4} {
		cfg := adaptiveConfig(sims.GeFINX86)
		cfg.Workers = workers
		collector := telemetry.New()
		res := runAdaptive(t, cfg, core.Attach{Golden: cache, Telemetry: collector})
		if ref == nil {
			ref = res
		} else {
			if !reflect.DeepEqual(res.Records, ref.Records) {
				t.Fatalf("workers=%d: records differ from workers=1", workers)
			}
			if !reflect.DeepEqual(res.Adaptive, ref.Adaptive) {
				t.Fatalf("workers=%d: adaptive info %+v differs from %+v", workers, res.Adaptive, ref.Adaptive)
			}
		}
		snap := collector.Snapshot()
		if snap.StoppedRuns != 35 {
			t.Fatalf("workers=%d: telemetry stopped_runs = %d, want 35", workers, snap.StoppedRuns)
		}
		if snap.CellsStoppedEarly != 1 {
			t.Fatalf("workers=%d: cells_stopped_early = %d, want 1", workers, snap.CellsStoppedEarly)
		}
		if !(snap.EffectiveMargin > 0 && snap.EffectiveMargin <= 0.25) {
			t.Fatalf("workers=%d: effective_margin = %v", workers, snap.EffectiveMargin)
		}
	}
}

// Criterion (d), resume leg: a journaled adaptive campaign killed
// mid-flight re-derives the identical stop point on -resume — the
// contiguous-prefix discipline makes the decision a function of the
// mask order, not of which completions had landed at the kill.
func TestAdaptiveResumeReproducesStopPoint(t *testing.T) {
	cache := core.NewGoldenCache()
	cfg := adaptiveConfig(sims.GeFINX86)
	cfg.Workers = 4
	ref := runAdaptive(t, cfg, core.Attach{Golden: cache})

	// A full journaled run stands in for the pre-kill process; truncating
	// its journal to the first 7 lines simulates the kill, leaving an
	// out-of-order subset (completion order, 4 workers) with holes.
	dir := t.TempDir()
	path := dir + "/cell.journal.jsonl"
	j, err := fault.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	runAdaptive(t, cfg, core.Attach{Golden: cache, Journal: j})
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 8 {
		t.Fatalf("journal too short to truncate: %d lines", len(lines))
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines[:7], "")), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := fault.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	resumed := runAdaptive(t, cfg, core.Attach{Golden: cache, Journal: j2, Resume: true})
	if !reflect.DeepEqual(resumed.Records, ref.Records) {
		t.Fatalf("resumed records differ from the uninterrupted run")
	}
	if !reflect.DeepEqual(resumed.Adaptive, ref.Adaptive) {
		t.Fatalf("resumed adaptive info %+v, want %+v", resumed.Adaptive, ref.Adaptive)
	}
}

// Criterion (d), composition leg: early stopping under pruning, the
// checkpoint ladder and the detail window still stops, settles every
// mask exactly once, and is deterministic across worker counts.
func TestAdaptiveStopComposesWithPruneLadderWindow(t *testing.T) {
	cache := core.NewGoldenCache()
	var ref *core.CampaignResult
	for _, workers := range []int{1, 4} {
		cfg := adaptiveConfig(sims.GeFINX86)
		// Pruning proves ~96% of rf.int masks dead, so the budget must be
		// large enough that the surviving simulated stream still crosses
		// the first evaluation boundary; the pruned masks cost nothing.
		cfg.Injections = 2000
		cfg.Workers = workers
		cfg.Prune = true
		cfg.CheckpointLadder = 3
		cfg.DetailWindow = true
		cfg.WindowPre = 2000
		cfg.WindowPost = 1000
		res := runAdaptive(t, cfg, core.Attach{Golden: cache})
		if res.Adaptive == nil || !res.Adaptive.StoppedEarly {
			t.Fatalf("workers=%d: composed cell did not stop early: %+v", workers, res.Adaptive)
		}
		if len(res.Records) != 2000 {
			t.Fatalf("workers=%d: %d records, want every mask settled", workers, len(res.Records))
		}
		seen := make(map[int]bool)
		stopped := 0
		for _, rec := range res.Records {
			if seen[rec.MaskID] {
				t.Fatalf("workers=%d: mask %d settled twice", workers, rec.MaskID)
			}
			seen[rec.MaskID] = true
			if rec.Status == core.RunStopped.String() {
				stopped++
			}
		}
		if stopped == 0 {
			t.Fatalf("workers=%d: stop fired but no stopped rows", workers)
		}
		if ref == nil {
			ref = res
		} else if !reflect.DeepEqual(res.Records, ref.Records) {
			t.Fatalf("workers=%d: composed records differ from workers=1", workers)
		}
	}
}

// Criterion (c): exhaustive mode enumerates exactly the collapsed
// equivalence-class space of the golden liveness profile, settles every
// class once with its cycle-mass weight, and stamps the cell complete.
// Real cells have multi-million-class censuses, so this runs against the
// deterministic fake simulator (8x64 bits, 100 cycles).
func TestExhaustiveCensusComplete(t *testing.T) {
	factory := core.Factory(func() core.Simulator { return newProfSim() })
	resolve := func(tool, benchmark string) (core.Factory, error) { return factory, nil }

	// The ground truth, enumerated independently of the config path.
	cache := core.NewGoldenCache()
	golden, err := cache.Golden("fake", "b", factory)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := cache.Profiles("fake", "b", factory, nil, []string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	prof := profs[0]["s"]
	want, err := fault.EnumerateExhaustive(fault.GeneratorSpec{
		Structure: "s", Entries: prof.Entries, BitsPerEntry: prof.BitsPerEntry,
		MaxCycle: golden.Cycles, Model: fault.ModelTransient, Seed: 1,
	}, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 64 {
		t.Fatalf("census suspiciously small (%d classes); the fake's access pattern should collapse 8x64x100 bits into hundreds", len(want))
	}

	cfg := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "fake", Benchmark: "b", Structure: "s"}},
		Exhaustive: true,
		Seed:       1,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	results, err := core.RunConfig(cfg, resolve, core.Attach{Golden: core.NewGoldenCache()})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	a := res.Adaptive
	if a == nil || !a.Complete {
		t.Fatalf("exhaustive cell not marked complete: %+v", a)
	}
	if a.StoppedEarly || a.EffectiveMargin != 0 {
		t.Fatalf("census must have zero margin and no stop: %+v", a)
	}
	if a.PlannedRuns != len(want) {
		t.Fatalf("planned %d classes, independent enumeration has %d", a.PlannedRuns, len(want))
	}
	if len(res.Records) != len(want) {
		t.Fatalf("%d records, want one per equivalence class (%d)", len(res.Records), len(want))
	}
	// Every class settled exactly once, at its representative site, with
	// its cycle-mass weight; the weights tile the raw population.
	population := float64(prof.Entries) * float64(prof.BitsPerEntry) * float64(golden.Cycles)
	var sum float64
	for i, rec := range res.Records {
		if rec.MaskID != want[i].ID || rec.Weight != want[i].Weight {
			t.Fatalf("record %d: mask %d weight %v, want mask %d weight %v", i, rec.MaskID, rec.Weight, want[i].ID, want[i].Weight)
		}
		if !reflect.DeepEqual(rec.Sites, want[i].Sites) {
			t.Fatalf("record %d: sites %+v, want %+v", i, rec.Sites, want[i].Sites)
		}
		if rec.Status == core.RunStopped.String() {
			t.Fatalf("census row %d is a stopped row", i)
		}
		sum += rec.Weight
	}
	if sum != population {
		t.Fatalf("census weights sum to %v, want the raw population %v", sum, population)
	}
	b := core.Parser{}.ParseAll(res.Records)
	if b.WeightSum != population {
		t.Fatalf("breakdown weight sum %v, want %v", b.WeightSum, population)
	}
	if v := b.WeightedVulnerability(); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("non-finite census vulnerability: %v", v)
	}
}
