package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/sims"
	"repro/internal/telemetry"
)

// forkMasks builds the explicit masks of one qsort cell that exercise
// every fork-point edge: a first-site cycle every cell of the row shares
// (several runs fork at one cycle), a site before the first rung (at
// 1/5 of the golden run by default), sites at cycles 0 and 1 (nothing
// to advance), a site at the end of the golden run (the advance is
// clamped below it) and a multi-site mask.
func forkMasks(structure string, entries, bits int, goldenCycles uint64) []fault.Mask {
	site := func(i int, cycle uint64) fault.Site {
		return fault.Site{Structure: structure, Entry: (7 * i) % entries, Bit: (13 * i) % bits,
			Model: fault.ModelTransient, Cycle: cycle}
	}
	cycles := []uint64{goldenCycles / 3, goldenCycles / 3, goldenCycles / 9, 0, 1, goldenCycles}
	masks := make([]fault.Mask, 0, len(cycles)+1)
	for i, c := range cycles {
		masks = append(masks, fault.Mask{ID: i, Sites: []fault.Site{site(i, c)}})
	}
	n := len(masks)
	return append(masks, fault.Mask{ID: n, Sites: []fault.Site{
		site(n, goldenCycles/2), site(n+1, goldenCycles/4),
	}})
}

// forkConfig is one row per tool, three structure kinds each (register
// file, cache data array, load/store queue), over forkMasks.
func forkConfig(t *testing.T, resolve core.Resolver, tools []string) core.CampaignConfig {
	t.Helper()
	var cfg core.CampaignConfig
	for _, tool := range tools {
		f, err := resolve(tool, "qsort")
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.Golden(f)
		if err != nil {
			t.Fatal(err)
		}
		arrs := f().Structures()
		for _, structure := range []string{"rf.int", "l1d.data", "lsq.data"} {
			arr := arrs[structure]
			cfg.Campaigns = append(cfg.Campaigns, core.CampaignCell{
				Tool: tool, Benchmark: "qsort", Structure: structure,
				Masks: forkMasks(structure, arr.Entries(), arr.BitsPerEntry(), g.Cycles),
			})
		}
	}
	return cfg
}

// Every unwindowed run forks at its fault off one fault-free chain per
// row, whichever fork point served its advance. Its record must be the
// boot run's: core.RunOne, which boots a fresh machine per mask, is the
// reference, at one worker and at two. A stopping rule that never
// fires keeps the queue in mask order, where a run can find the row's
// fork point already past its fault and must fork from below it.
func TestForkedRunsAreTheBootRuns(t *testing.T) {
	resolve := simsResolver(t)
	cfg := forkConfig(t, resolve, []string{sims.MaFINX86, sims.GeFINX86, sims.GeFINARM})
	cache := core.NewGoldenCache()
	var boot [][]core.LogRecord
	for _, mode := range []struct {
		workers int
		margin  float64
	}{{1, 0}, {2, 0}, {1, 0.001}} {
		cfg.Workers = mode.workers
		cfg.StopMargin, cfg.StopConfidence = mode.margin, 0
		if mode.margin > 0 {
			cfg.StopConfidence = 0.95
		}
		workers := fmt.Sprintf("%d (stop margin %v)", mode.workers, mode.margin)
		res, err := core.RunConfig(cfg, resolve, core.Attach{Golden: cache})
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		for c, cell := range cfg.Campaigns {
			if len(boot) <= c {
				f, _ := resolve(cell.Tool, cell.Benchmark)
				var recs []core.LogRecord
				for _, m := range cell.Masks {
					rec, err := core.RunOne(f, m, res[c].Golden, 0, true)
					if err != nil {
						t.Fatal(err)
					}
					recs = append(recs, rec)
				}
				boot = append(boot, recs)
			}
			for i, m := range cell.Masks {
				if got := res[c].Records[i]; !reflect.DeepEqual(got, boot[c][i]) {
					t.Errorf("workers=%s %s × %s mask %d: forked %+v, boot run %+v",
						workers, cell.Tool, cell.Structure, m.ID, got, boot[c][i])
				}
			}
		}
	}
}

// A forked run's commit probe goes on from the fork point's probe state:
// the state of a probe attached where the row's chain began, at the rung
// below the run's fault or at boot. Its divergence verdict must be the
// one a probe attached at that rung gives, whichever fork point served
// the run. The sites below diverge the committed stream inside the
// 64-instruction block their fork cycle falls in, which a probe attached
// at the fork cycle would skip. Each of them follows a mask that forks
// three cycles earlier, inside the same block, so it restores that
// mask's point and must take the probe state the point carries.
func TestForkedDivergenceIsTheRungRun(t *testing.T) {
	resolve := simsResolver(t)
	site := func(entry, bit int, cycle uint64) []fault.Site {
		return []fault.Site{{Structure: "rf.int", Entry: entry, Bit: bit, Model: fault.ModelTransient, Cycle: cycle}}
	}
	rows := map[string][][]fault.Site{
		sims.GeFINARM: {site(5, 3, 6291), site(40, 52, 6294), site(6, 3, 13041), site(33, 20, 13044)},
		sims.GeFINX86: {site(5, 3, 138128), site(16, 4, 138131)},
		sims.MaFINX86: {site(5, 3, 141956), site(21, 25, 141959)},
	}
	cfg := core.CampaignConfig{Divergence: true, Workers: 1}
	for _, tool := range []string{sims.GeFINARM, sims.GeFINX86, sims.MaFINX86} {
		var masks []fault.Mask
		for i, sites := range rows[tool] {
			masks = append(masks, fault.Mask{ID: i, Sites: sites})
		}
		cfg.Campaigns = append(cfg.Campaigns, core.CampaignCell{Tool: tool, Benchmark: "qsort", Structure: "rf.int", Masks: masks})
	}
	cache := core.NewGoldenCache()
	res, err := core.RunConfig(cfg, resolve, core.Attach{Golden: cache})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]divergence.Record)
	for _, r := range core.DivergenceRows(res) {
		got[fmt.Sprintf("%s/%d", r.Campaign, r.MaskID)] = r
	}
	diverged := 0
	for c, cell := range cfg.Campaigns {
		f, _ := resolve(cell.Tool, cell.Benchmark)
		rungs, _, sig, err := core.Derive(cache, cell.Tool, cell.Benchmark, f, 4, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cell.Masks {
			want, div, cycle, index, err := core.RunFromRung(f, rungs, m, res[c].Golden, sig)
			if err != nil {
				t.Fatal(err)
			}
			if rec := res[c].Records[m.ID]; !reflect.DeepEqual(rec, want) {
				t.Errorf("%s mask %d: forked %+v, rung run %+v", cell.Tool, m.ID, rec, want)
			}
			r := got[fmt.Sprintf("%s/%d", fault.CampaignKey(cell.Tool, cell.Benchmark, cell.Structure), m.ID)]
			if r.Diverged != div || r.DivergeCycle != cycle || r.DivergeIndex != index {
				t.Errorf("%s mask %d: forked divergence (%v, cycle %d, index %d), rung run (%v, cycle %d, index %d)",
					cell.Tool, m.ID, r.Diverged, r.DivergeCycle, r.DivergeIndex, div, cycle, index)
			}
			if div {
				diverged++
			}
		}
	}
	if diverged == 0 {
		t.Fatal("no run diverged: the population checks nothing")
	}
}

// At one worker each row's runs fork in first-site order, so within the
// stretch between two rungs the advances chain: the first run of the
// stretch advances from its rung, each later one from the fork point of
// the one before. A row's advance cycles therefore sum, over the
// stretches its runs fork in, to the highest fork cycle minus the rung
// below it — at most one golden run. The fork phases of the traced runs
// report the same cycles.
func TestForkAdvanceCyclesPerRow(t *testing.T) {
	resolve := simsResolver(t)
	tools := []string{sims.GeFINX86, sims.GeFINARM}
	cfg := forkConfig(t, resolve, tools)
	cfg.Workers = 1
	cache := core.NewGoldenCache()
	tr := telemetry.NewTracer("fork", "f")
	spans := telemetry.NewSpanBuffer()
	tr.AddSink(spans)
	var res []*core.CampaignResult
	var runErr error
	advanced := core.CountForkAdvances(func() {
		res, runErr = core.RunConfig(cfg, resolve, core.Attach{Golden: cache, Tracer: tr})
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	planned, err := core.PlanConfig(cfg, resolve, cache)
	if err != nil {
		t.Fatal(err)
	}

	want := make(map[string]uint64)
	for _, tool := range tools {
		// The highest fork cycle above each rung of the row (rung -1:
		// boot at cycle 0).
		top := make(map[int]uint64)
		var golden uint64
		var rungs []uint64
		for c, cell := range cfg.Campaigns {
			if cell.Tool != tool {
				continue
			}
			golden, rungs = res[c].Golden.Cycles, planned[c].RungCycles
			for _, m := range cell.Masks {
				minSite := m.Sites[0].Cycle
				for _, s := range m.Sites {
					minSite = min(minSite, s.Cycle)
				}
				at := min(minSite, golden)
				if at > 0 {
					at--
				}
				seg := -1
				for r, rc := range rungs {
					if rc <= at {
						seg = r
					}
				}
				top[seg] = max(top[seg], at)
			}
		}
		var sum uint64
		for seg, at := range top {
			if seg >= 0 {
				at -= rungs[seg]
			}
			sum += at
		}
		if sum > golden {
			t.Fatalf("%s: expected advance %d exceeds the golden run's %d cycles", tool, sum, golden)
		}
		want[tool+"/qsort"] = sum
	}
	if !reflect.DeepEqual(advanced, want) {
		t.Fatalf("advance cycles per row %v, want %v", advanced, want)
	}

	phases := make(map[string]uint64)
	var forks, details int
	for _, sp := range spans.Spans() {
		if sp.Kind != telemetry.SpanPhase {
			continue
		}
		switch sp.Name {
		case "fork":
			forks++
			key := strings.Split(sp.Campaign, "__") // tool, benchmark, structure
			phases[key[0]+"/"+key[1]] += sp.Cycles
		case "detail":
			details++
		}
	}
	runs := 0
	for _, cell := range cfg.Campaigns {
		runs += len(cell.Masks)
	}
	if forks != runs || details != runs {
		t.Fatalf("%d fork and %d detail phases for %d runs", forks, details, runs)
	}
	if !reflect.DeepEqual(phases, want) {
		t.Fatalf("fork phases report %v advance cycles per row, want %v", phases, want)
	}
}

// A shard's outcomes carry the per-run extras a coordinator merges:
// with forking, every one of them but the wall time describes the
// faulty run alone, so a pruned, unwindowed shard returns the same
// outcomes at one worker as at two.
func TestShardOutcomesMatchAcrossWorkerCounts(t *testing.T) {
	resolve := simsResolver(t)
	cfg := core.CampaignConfig{
		Campaigns: []core.CampaignCell{
			{Tool: sims.GeFINX86, Benchmark: "qsort", Structure: "l1d.data"},
		},
		Injections: 40, Seed: 5, Prune: true, Divergence: true,
	}
	shard := func(workers int) []core.ShardRun {
		cfg.Workers = workers
		res, err := core.RunShard(cfg, 0, 0, 40, resolve, core.Attach{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range res.Runs {
			res.Runs[i].WallNS = 0
		}
		return res.Runs
	}
	one, two := shard(1), shard(2)
	restored := 0
	for i := range one {
		if !reflect.DeepEqual(one[i], two[i]) {
			t.Errorf("run %d: workers=1 %+v, workers=2 %+v", i, one[i], two[i])
		}
		if one[i].LadderRestored {
			restored++
		}
	}
	if restored == 0 {
		t.Fatal("no run forked past boot")
	}
}
