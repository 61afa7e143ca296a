package core_test

import (
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/gem5"
	"repro/internal/marss"
	"repro/internal/sims"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// eventLog is a telemetry sink that keeps every run event.
type eventLog struct {
	mu  sync.Mutex
	evs []telemetry.RunEvent
}

func (l *eventLog) RunEvent(ev telemetry.RunEvent) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

// TestBenchPopulationWindowsCloseAndVerify runs the benchmark's own
// windowed population (bench/workloads.go: windowedKnobs, qsort, the
// poolSeed 7 masks, 100 per cell) with the window-verify guard over
// every windowed mask: each is re-simulated cycle-accurately to the end
// from the same window entry and must land in the same class, on both
// x86 tools, for data and instruction arrays. On MaFIN's L1D it also
// pins what the content rule buys: no run whose fault was consumed is
// held open to the end of the program — the flipped byte is overwritten
// by a store, array and RAM agree again, and the window closes. A
// regression to "never exits" fails here, not in a benchmark.
func TestBenchPopulationWindowsCloseAndVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("four windowed cells with full verification")
	}
	cfg := core.CampaignConfig{
		LiveOnly: true, Prune: true, CheckpointLadder: 3,
		DetailWindow: true, WindowPre: 2000, WindowPost: 1000,
		Injections: 150, Seed: 11, WindowVerify: 150, Workers: 2,
	}
	for _, tool := range []string{sims.MaFINX86, sims.GeFINX86} {
		for _, s := range []string{"l1d.data", "l1i.data"} {
			cfg.Campaigns = append(cfg.Campaigns, core.CampaignCell{Tool: tool, Benchmark: "qsort", Structure: s})
		}
	}
	col, log := telemetry.New(), &eventLog{}
	col.AddSink(log)
	if _, err := core.RunConfig(cfg, cli.Resolve, core.Attach{Telemetry: col}); err != nil {
		t.Fatalf("window-verify over every windowed mask: %v", err)
	}
	type tally struct{ windowed, consumed, exits, holds, consumedHolds int }
	cells := map[string]*tally{}
	for _, ev := range log.evs {
		if !ev.Windowed {
			continue
		}
		c := cells[ev.Campaign]
		if c == nil {
			c = &tally{}
			cells[ev.Campaign] = c
		}
		c.windowed++
		if ev.Observed {
			c.consumed++
		}
		if ev.WindowExited {
			c.exits++
		}
		if ev.WindowHeld {
			c.holds++
			if ev.Observed {
				c.consumedHolds++
				if ev.Tool == sims.MaFINX86 && ev.Structure == "l1d.data" {
					t.Errorf("%s mask %d: fault consumed at cycle %d, window held open to the end (%s after %d cycles)",
						ev.Campaign, ev.MaskID, ev.FirstObsCycle, ev.Status, ev.Cycles)
				}
			}
		}
	}
	for key, c := range cells {
		t.Logf("%s: %d windowed, %d consumed, %d exits, %d holds (%d consumed)", key, c.windowed, c.consumed, c.exits, c.holds, c.consumedHolds)
	}
	snap := col.Snapshot()
	if snap.WindowHolds+snap.WindowExits > snap.WindowedRuns {
		t.Errorf("snapshot counts %d holds + %d exits among %d windowed runs", snap.WindowHolds, snap.WindowExits, snap.WindowedRuns)
	}
	m := cells["mafin-x86__qsort__l1d.data"]
	if m == nil || m.consumed == 0 {
		t.Fatalf("mafin-x86 l1d.data: no consumed fault in the population: %+v", m)
	}
	// At the parent 14 consumed runs of this cell were held to the end
	// and none of its consumed faults left the window.
	if m.exits < 14 {
		t.Errorf("mafin-x86 l1d.data: %d window exits, want at least the 14 consumed runs the old rule held open", m.exits)
	}
}

// TestConsumedLowerLevelFaultHoldsItsWindow drives the lower-level arm
// of the exit rule on real cores: once an l2.data fault has been read, a
// refill may have copied it into an L1, so the window stays open for the
// rest of the run on both tools, and every windowed mask verifies. With
// the default geometry the arm never runs: qsort fits the 32 KB L1D, its
// L2 lines are read once, and a live-only l2.data population prunes to
// nothing. A 1 KB L1D over an 8 KB L2 makes L2 serve refills and evict.
// (The hole itself — a corrupt L1 copy outliving its L2 line — is shown
// deterministically in internal/cache.)
func TestConsumedLowerLevelFaultHoldsItsWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("two windowed cells with full verification")
	}
	w, err := workload.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	img, err := w.Image(asm.TargetCISC)
	if err != nil {
		t.Fatal(err)
	}
	const l1dSize, l2Size = 1 << 10, 8 << 10
	resolve := func(tool, bench string) (core.Factory, error) {
		if tool == sims.MaFINX86 {
			cfg := marss.DefaultConfig()
			cfg.L2.Size, cfg.L2.Ways, cfg.L1D.Size, cfg.L1D.Ways = l2Size, 2, l1dSize, 2
			return func() core.Simulator { return marss.New(cfg, img) }, nil
		}
		cfg := gem5.DefaultConfig(gem5.ISAX86)
		cfg.L2.Size, cfg.L2.Ways, cfg.L1D.Size, cfg.L1D.Ways = l2Size, 2, l1dSize, 2
		return func() core.Simulator { return gem5.New(cfg, img) }, nil
	}
	cfg := core.CampaignConfig{
		LiveOnly: true, Prune: true,
		DetailWindow: true, WindowPre: 2000, WindowPost: 1000,
		Injections: 150, Seed: 11, WindowVerify: 150, Workers: 2,
		Campaigns: []core.CampaignCell{
			{Tool: sims.MaFINX86, Benchmark: "qsort", Structure: "l2.data"},
			{Tool: sims.GeFINX86, Benchmark: "qsort", Structure: "l2.data"},
		},
	}
	col, log := telemetry.New(), &eventLog{}
	col.AddSink(log)
	if _, err := core.RunConfig(cfg, resolve, core.Attach{Telemetry: col}); err != nil {
		t.Fatalf("window-verify over every windowed l2.data mask: %v", err)
	}
	consumed := map[string]int{}
	for _, ev := range log.evs {
		if ev.Windowed && ev.Observed {
			consumed[ev.Tool]++
			if ev.WindowExited {
				t.Errorf("%s mask %d: l2.data fault consumed at cycle %d, yet the window closed", ev.Campaign, ev.MaskID, ev.FirstObsCycle)
			}
		}
	}
	snap := col.Snapshot()
	t.Logf("%d windowed, %d exits, %d holds, consumed per tool %v", snap.WindowedRuns, snap.WindowExits, snap.WindowHolds, consumed)
	for _, tool := range []string{sims.MaFINX86, sims.GeFINX86} {
		if consumed[tool] == 0 {
			t.Errorf("%s: no l2.data fault was consumed — the population exercises nothing", tool)
		}
	}
}
