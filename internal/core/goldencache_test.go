package core_test

import (
	"fmt"
	"reflect"
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
