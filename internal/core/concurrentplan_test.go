package core_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sims"
	"repro/internal/telemetry"
)

// cacheCounts is the golden cache's side of a snapshot: what it holds
// and how its lookups split into hits and builds per artifact kind.
func cacheCounts(c *core.GoldenCache) telemetry.Snapshot {
	s := observe(c)
	return telemetry.Snapshot{
		GoldenRuns: s.GoldenRuns, GoldenHits: s.GoldenHits,
		LadderBuilds: s.LadderBuilds, LadderHits: s.LadderHits,
		ProfileBuilds: s.ProfileBuilds, ProfileHits: s.ProfileHits,
		SignatureBuilds: s.SignatureBuilds, SignatureHits: s.SignatureHits,
		CacheRows: s.CacheRows, CacheBytes: s.CacheBytes,
	}
}

// The plan's golden runs and the replays that build checkpoint ladders
// and liveness profiles run concurrently under Workers, and that may change when each exists but
// never what it is: planned at Workers 1 and at Workers 4 on fresh
// caches, a prune + ladder + window config over three rows yields the
// same golden references, rung cycles, encoded profiles, prune
// decisions, dispositions, verify samples and cache counters, and the
// same number of cold builds (their log lines may come in any order):
// per row a golden run and one replay that builds both the ladder and
// the profiles.
func TestConcurrentPlanMatchesSerial(t *testing.T) {
	cfg := core.CampaignConfig{
		Injections: 40, Seed: 11,
		Prune: true, PruneVerify: 5,
		CheckpointLadder: 3,
		DetailWindow:     true, WindowPre: 2000, WindowPost: 1000, WindowVerify: 3,
	}
	for _, tool := range sims.Tools() {
		for _, structure := range []string{"rf.int", "l1d.data"} {
			cfg.Campaigns = append(cfg.Campaigns, core.CampaignCell{Tool: tool, Benchmark: "djpeg", Structure: structure})
		}
	}
	plan := func(workers int) ([]core.PlannedCell, telemetry.Snapshot, int) {
		t.Helper()
		cfg.Workers = workers
		cache := core.NewGoldenCache()
		var mu sync.Mutex
		builds := 0
		cache.Logf = func(string, ...any) {
			mu.Lock()
			builds++
			mu.Unlock()
		}
		cells, err := core.PlanConfig(cfg, simsResolver(t), cache)
		if err != nil {
			t.Fatalf("Workers %d: %v", workers, err)
		}
		return cells, cacheCounts(cache), builds
	}
	serial, serialCounts, serialBuilds := plan(1)
	for _, c := range serial {
		if len(c.RungCycles) != 3 || len(c.Profiles) != 2 || c.Prune == nil || c.Prune.Simulated == len(c.Disp) {
			t.Fatalf("%s: %d rungs, %d profiled structures, prune plan %v: the plan exercised too little",
				c.Golden.Tool, len(c.RungCycles), len(c.Profiles), c.Prune)
		}
	}
	wide, wideCounts, wideBuilds := plan(4)
	for i := range serial {
		if !reflect.DeepEqual(wide[i], serial[i]) {
			t.Fatalf("cell %d (%s/%s/%s) planned differently at Workers 4 than at Workers 1",
				i, cfg.Campaigns[i].Tool, cfg.Campaigns[i].Benchmark, cfg.Campaigns[i].Structure)
		}
	}
	if !reflect.DeepEqual(wideCounts, serialCounts) {
		t.Fatalf("cache counters at Workers 4 %+v, at Workers 1 %+v", wideCounts, serialCounts)
	}
	if wideBuilds != serialBuilds || serialBuilds != 3*(1+1) {
		t.Fatalf("%d cold builds at Workers 4, %d at Workers 1; want a golden run and one replay per row", wideBuilds, serialBuilds)
	}
}

// failSim is a machine whose fault-free run ends in an assertion naming
// its benchmark.
type failSim struct {
	*fakeSim
	bench string
}

func (s failSim) Run(uint64) core.RunResult {
	return core.RunResult{Status: core.RunAssert, AssertMsg: "broken " + s.bench}
}

// With several failing cells the plan reports the first failure in cell
// order, whichever finished first: the build stage (generated masks) and
// the plan stage (explicit masks) alike, at any Workers.
func TestConcurrentPlanReportsTheFirstFailingCell(t *testing.T) {
	resolve := func(tool, bench string) (core.Factory, error) {
		if strings.HasPrefix(bench, "broken") {
			return func() core.Simulator { return failSim{newFakeSim(), bench} }, nil
		}
		return func() core.Simulator { return newFakeSim() }, nil
	}
	for _, explicit := range []bool{false, true} {
		cfg := core.CampaignConfig{Injections: 4}
		for _, bench := range []string{"ok", "broken-a", "broken-b", "ok2"} {
			cell := core.CampaignCell{Tool: "fake", Benchmark: bench, Structure: "s"}
			if explicit {
				cell.Masks = fakeMasks(4)
			}
			cfg.Campaigns = append(cfg.Campaigns, cell)
		}
		for _, workers := range []int{1, 4, 4, 4} {
			cfg.Workers = workers
			_, err := core.RunConfig(cfg, resolve, core.Attach{})
			if err == nil || !strings.Contains(err.Error(), "broken broken-a") {
				t.Fatalf("explicit masks %v, Workers %d: error %v, want the second cell's", explicit, workers, err)
			}
		}
	}
}
