package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sims"
	"repro/internal/telemetry"
)

func observe(c *core.GoldenCache) telemetry.Snapshot {
	var s telemetry.Snapshot
	c.Observe(&s)
	return s
}

// Two callers alternating on one row with different parameters — two
// campaigns sharing a fleet worker — must each build their artifact
// once and hit it from then on: every memo is keyed by its parameters,
// not "the last caller's".
func TestGoldenCacheMemosAreKeyedByParameters(t *testing.T) {
	f := qsortFactory(t, sims.GeFINX86)
	cache := core.NewGoldenCache()
	var logged []string
	cache.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	const tool, bench = sims.GeFINX86, "qsort"

	ladder := func(k int) []core.LadderRung {
		t.Helper()
		rungs, err := cache.Ladder(tool, bench, f, k)
		if err != nil || len(rungs) == 0 {
			t.Fatalf("Ladder(%d): %d rungs, %v", k, len(rungs), err)
		}
		return rungs
	}
	l2, l3 := ladder(2), ladder(3)
	for round := 0; round < 2; round++ {
		if again := ladder(2); &again[0] != &l2[0] {
			t.Fatal("Ladder(2) was rebuilt after Ladder(3) was asked for")
		}
		if again := ladder(3); &again[0] != &l3[0] {
			t.Fatal("Ladder(3) was rebuilt after Ladder(2) was asked for")
		}
	}

	sets := [][]string{{"rf.int"}, {"l1d.data", "rf.int"}}
	for round := 0; round < 2; round++ {
		for _, set := range sets {
			p, err := cache.Profiles(tool, bench, f, l2, set)
			if err != nil || len(p) != 1 || len(p[0]) != len(set) {
				t.Fatalf("Profiles(%q): %d profile sets, %v; want the boot run's alone", set, len(p), err)
			}
		}
	}

	golden, err := cache.Golden(tool, bench, f)
	if err != nil {
		t.Fatal(err)
	}
	ff := cache.FFLadder(tool, bench, golden)
	if ff == nil {
		t.Fatal("no fast-forward ladder for the row")
	}
	if again := cache.FFLadder(tool, bench, golden); again != ff {
		t.Fatal("the row's fast-forward ladder was replaced on a second lookup")
	}

	s := observe(cache)
	if s.GoldenRuns != 1 || s.LadderBuilds != 2 || s.LadderHits != 4 || s.ProfileBuilds != 2 || s.ProfileHits != 2 {
		t.Fatalf("golden %d, ladders %d built %d hit, profiles %d built %d hit; want 1, 2/4, 2/2",
			s.GoldenRuns, s.LadderBuilds, s.LadderHits, s.ProfileBuilds, s.ProfileHits)
	}
	if s.CacheRows != 1 || s.CacheBytes == 0 || s.CacheEvictions != 0 {
		t.Fatalf("cache holds %d rows, %d bytes, %d evictions", s.CacheRows, s.CacheBytes, s.CacheEvictions)
	}
	// One line per cold build: the golden run, two ladders, two profile sets.
	if len(logged) != 5 {
		t.Fatalf("%d cold-build lines, want 5:\n%s", len(logged), logged)
	}
}

// The row keeps geometry and live entries, not the machine they were
// read from; both must answer exactly what the finished machine says.
func TestGoldenCacheGeometryAndLiveEntriesMatchTheMachine(t *testing.T) {
	f := qsortFactory(t, sims.MaFINX86)
	sim := f()
	if res := sim.Run(1 << 62); res.Status != core.RunCompleted {
		t.Fatalf("golden run: %v", res.Status)
	}
	cache := core.NewGoldenCache()
	for name, arr := range sim.Structures() {
		entries, bits, ok, err := cache.Geometry(sims.MaFINX86, "qsort", f, name)
		if err != nil || !ok || entries != arr.Entries() || bits != arr.BitsPerEntry() {
			t.Fatalf("%s: geometry %d×%d ok=%v err=%v, machine says %d×%d", name, entries, bits, ok, err, arr.Entries(), arr.BitsPerEntry())
		}
		var want []int
		for i := 0; i < arr.Entries(); i++ {
			if arr.EntryValid(i) {
				want = append(want, i)
			}
		}
		got, err := cache.LiveEntries(sims.MaFINX86, "qsort", f, name)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d live entries (%v), machine says %d", name, len(got), err, len(want))
		}
	}
	if _, _, ok, _ := cache.Geometry(sims.MaFINX86, "qsort", f, "no.such"); ok {
		t.Fatal("geometry of an unknown structure reported ok")
	}
	if _, err := cache.LiveEntries(sims.MaFINX86, "qsort", f, "no.such"); err == nil {
		t.Fatal("live entries of an unknown structure reported no error")
	}
	if cache.Runs() != 1 {
		t.Fatalf("%d golden runs, want 1", cache.Runs())
	}
}

// Past its bound the cache drops the least recently used row: memory
// stays bounded, a recent row is still served from memory and a dropped
// one is rebuilt. Concurrent users on overlapping rows (run with -race)
// never see a half-built row.
func TestGoldenCacheBoundsItsRows(t *testing.T) {
	cache := core.NewGoldenCache()
	f := func() core.Simulator { return newProfSim() }
	const rows = 100
	row := func(i int) string { return fmt.Sprintf("row-%d", i) }
	for i := 0; i < rows; i++ {
		if _, err := cache.Golden("fake", row(i), f); err != nil {
			t.Fatal(err)
		}
	}
	s := observe(cache)
	if s.CacheEvictions == 0 || s.CacheRows+s.CacheEvictions != rows || s.CacheRows >= rows {
		t.Fatalf("%d rows resident after %d inserts, %d evictions", s.CacheRows, rows, s.CacheEvictions)
	}
	if _, err := cache.Golden("fake", row(rows-1), f); err != nil || cache.Runs() != rows {
		t.Fatalf("the most recent row was re-simulated: %d runs, %v", cache.Runs(), err)
	}
	if _, err := cache.Golden("fake", row(0), f); err != nil || cache.Runs() != rows+1 {
		t.Fatalf("the oldest row was not rebuilt after eviction: %d runs, %v", cache.Runs(), err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rows; i++ {
				bench := row((i*7 + w*13) % rows)
				g, err := cache.Golden("fake", bench, f)
				if err != nil || g.Cycles != 100 || g.Benchmark != bench {
					t.Errorf("%s: golden %+v, %v", bench, g, err)
					return
				}
				if entries, bits, ok, err := cache.Geometry("fake", bench, f, "s"); err != nil || !ok || entries != 8 || bits != 64 {
					t.Errorf("%s: geometry %d×%d ok=%v err=%v", bench, entries, bits, ok, err)
					return
				}
				p, err := cache.Profiles("fake", bench, f, nil, []string{"s"})
				if err != nil || len(p) != 1 || p[0]["s"].EventCount() == 0 {
					t.Errorf("%s: profiles %v, %v", bench, p, err)
					return
				}
				observe(cache)
			}
		}(w)
	}
	wg.Wait()
	if s := observe(cache); s.CacheRows >= rows {
		t.Fatalf("%d rows resident after concurrent use", s.CacheRows)
	}
}

// One replay builds what separate requests build: on every tool, a
// 4-rung ladder, two profiles and the commit signature asked for in one
// lookup equal the same artifacts asked for one at a time on a fresh
// cache — so taking checkpoints and recording the commit stream leave
// the profiles alone (Checkpoint reads arrays through their snapshots,
// which the profiler does not see) — and every rung of the one pass,
// restored and run to the end, is the boot run.
func TestOneReplayBuildsWhatSeparateRequestsBuild(t *testing.T) {
	structures := []string{"l1d.data", "rf.int"}
	for _, tool := range sims.Tools() {
		t.Run(tool, func(t *testing.T) {
			f := qsortFactory(t, tool)
			one := core.NewGoldenCache()
			rungs, profiles, sig, err := core.Derive(one, tool, "qsort", f, 4, structures, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(rungs) != 4 || len(profiles) != 2 || sig == nil {
				t.Fatalf("one pass built %d rungs, %d profiles, signature %v", len(rungs), len(profiles), sig != nil)
			}
			if n := core.Replays(one); n != 1 {
				t.Fatalf("one request ran %d replays", n)
			}

			apart := core.NewGoldenCache()
			ladder, err := apart.Ladder(tool, "qsort", f, 4)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range ladder {
				if r.Cycle != rungs[i].Cycle {
					t.Fatalf("rung %d at cycle %d apart, %d in one pass", i, r.Cycle, rungs[i].Cycle)
				}
			}
			for _, s := range structures {
				p, err := apart.Profiles(tool, "qsort", f, nil, []string{s})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(p[0][s], profiles[s]) {
					t.Fatalf("%s: the profile of the one pass differs from the profile-only replay's", s)
				}
			}
			alone, err := apart.CommitSignature(tool, "qsort", f)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(alone, sig) {
				t.Fatal("the signature of the one pass differs from the signature-only replay's")
			}
			if n := core.Replays(apart); n != 4 {
				t.Fatalf("four one-artifact requests ran %d replays, want 4", n)
			}

			boot := f()
			want := boot.Run(1 << 62)
			for i, r := range rungs {
				sim := f()
				if err := sim.(core.Checkpointer).Restore(r.State); err != nil {
					t.Fatal(err)
				}
				got := sim.Run(1 << 62)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(sim.Stats(), boot.Stats()) {
					t.Fatalf("rung %d (cycle %d) restored and run to the end: %v at cycle %d, boot run %v at cycle %d (or statistics differ)",
						i, r.Cycle, got.Status, got.Cycles, want.Status, want.Cycles)
				}
			}
		})
	}
}

// A cold pruned campaign with divergence runs one golden run and one
// replay per row: the ladder, the profiles and the signature come from
// the same pass, and the plan's lookup finds them.
func TestColdPrunedRowRunsOneReplay(t *testing.T) {
	cfg := core.CampaignConfig{
		Campaigns: []core.CampaignCell{
			{Tool: sims.GeFINX86, Benchmark: "qsort", Structure: "rf.int"},
			{Tool: sims.MaFINX86, Benchmark: "qsort", Structure: "l1d.data"},
		},
		Injections: 8, Seed: 5, Workers: 2,
		Prune: true, Divergence: true,
	}
	cache := core.NewGoldenCache()
	att := core.Attach{Golden: cache}
	if _, err := core.RunConfig(cfg, simsResolver(t), att); err != nil {
		t.Fatal(err)
	}
	if runs, replays := cache.Runs(), core.Replays(cache); runs != 2 || replays != 2 {
		t.Fatalf("%d golden runs and %d replays for 2 rows, want 2 and 2", runs, replays)
	}
	s := observe(cache)
	if s.LadderBuilds != 2 || s.ProfileBuilds != 2 || s.SignatureBuilds != 2 {
		t.Fatalf("%d ladder, %d profile and %d signature builds, want 2 of each", s.LadderBuilds, s.ProfileBuilds, s.SignatureBuilds)
	}
}

// brokenLadderSim is profSim with a checkpoint ladder whose second
// capture fails.
type brokenLadderSim struct {
	*profSim
	captures int
}

func (s *brokenLadderSim) RunTo(target uint64) (uint64, bool, error) {
	s.cycle = target
	return target, false, nil
}

func (s *brokenLadderSim) Checkpoint() (any, error) {
	if s.captures++; s.captures == 2 {
		return nil, errors.New("disk full")
	}
	return s.cycle, nil
}

func (s *brokenLadderSim) Restore(any) error { return nil }

// A rung that cannot be captured fails the campaign with an error
// naming the row, the artifact and the cycle, instead of handing the
// campaign a shorter ladder.
func TestFailedCheckpointIsNamed(t *testing.T) {
	cfg := core.CampaignConfig{
		Campaigns:        []core.CampaignCell{{Tool: "fake", Benchmark: "b", Structure: "s"}},
		Injections:       4,
		CheckpointLadder: 3,
	}
	resolve := func(string, string) (core.Factory, error) {
		return func() core.Simulator { return &brokenLadderSim{profSim: newProfSim()} }, nil
	}
	_, err := core.RunConfig(cfg, resolve, core.Attach{})
	if err == nil {
		t.Fatal("a campaign ran on a ladder whose second checkpoint failed")
	}
	for _, want := range []string{"fake/b", "3-rung checkpoint ladder", "checkpoint at cycle 50", "disk full"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}
