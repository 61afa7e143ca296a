package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/sims"
	"repro/internal/telemetry"
)

// windowSpecs builds the standard two-structure qsort campaign pair used
// by the detail-window tests: register-file faults (settle fast, long
// functional tails) and L1D faults (residency-gated exits).
func windowSpecs(t *testing.T, tool string, f core.Factory, count int, seed int64) []core.CampaignSpec {
	t.Helper()
	g, err := core.Golden(f)
	if err != nil {
		t.Fatal(err)
	}
	sim := f()
	var specs []core.CampaignSpec
	for _, structure := range []string{"rf.int", "l1d.data"} {
		arr := sim.Structures()[structure]
		masks, err := fault.Generate(fault.GeneratorSpec{
			Structure: structure, Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry(),
			MaxCycle: g.Cycles, Model: fault.ModelTransient, Count: count, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, core.CampaignSpec{
			Tool: tool, Benchmark: "qsort", Structure: structure,
			Masks: masks, Factory: f,
		})
	}
	return specs
}

func classesPerMask(t *testing.T, results []*core.CampaignResult) [][]core.Class {
	t.Helper()
	out := make([][]core.Class, len(results))
	for i, res := range results {
		out[i] = make([]core.Class, len(res.Records))
		for j, rec := range res.Records {
			out[i][j], _ = (core.Parser{}).Classify(rec)
		}
	}
	return out
}

// TestDetailWindowDifferential is the window-on vs window-off
// differential: the same campaigns, once fully cycle-accurate and once
// under a detail window. Windowing is sampled execution — the
// functional fast-forward reaches the window entry along a slightly
// different trajectory than a warm cycle-accurate machine, so
// borderline masks may individually reclassify (the same acceptance as
// checkpoint restores; per-trajectory soundness is what
// TestWindowVerifyAgrees pins down). What must hold is the statistical
// contract: the vast majority of masks classify identically and the
// per-structure class distributions stay within a small drift — and the
// windowed run must actually use the fast tier (otherwise the test
// proves nothing).
func TestDetailWindowDifferential(t *testing.T) {
	for _, tc := range []struct {
		tool string
		// wantExits: whether any run should hand its tail back to the
		// functional tier. On gem5 dirty write-back lines become
		// capture-safe, so l1d tails exit. On MaFIN every rf.int mask
		// early-masks at the site (physical registers recycle fast — no
		// tail survives) and all 25 l1d.data masks of this uniform
		// sample land on lines the cold window-entry cache has not filled
		// (skipped-invalid), so zero exits is the correct outcome here;
		// the fast tier still absorbs the whole pre-fault prefix. The
		// MaFIN l1d exit path is pinned on a population that has
		// consumed faults by TestBenchPopulationWindowsCloseAndVerify.
		wantExits bool
	}{{sims.MaFINX86, false}, {sims.GeFINX86, true}} {
		tool := tc.tool
		t.Run(tool, func(t *testing.T) {
			f := qsortFactory(t, tool)
			specs := windowSpecs(t, tool, f, 25, 41)

			run := func(window bool) ([]*core.CampaignResult, telemetry.Snapshot) {
				col := telemetry.New()
				opt := core.CampaignConfig{Workers: 4}
				if window {
					opt.DetailWindow = true
					opt.WindowPre = 2000
					opt.WindowPost = 1000
				}
				res, err := runSpecs(specs, opt, core.Attach{Telemetry: col})
				if err != nil {
					t.Fatal(err)
				}
				return res, col.Snapshot()
			}

			full, fullSnap := run(false)
			windowed, winSnap := run(true)

			if fullSnap.WindowedRuns != 0 || fullSnap.FastSteps != 0 {
				t.Fatalf("window-off run reports window telemetry: %d runs, %d fast steps",
					fullSnap.WindowedRuns, fullSnap.FastSteps)
			}
			if winSnap.WindowedRuns == 0 || winSnap.WindowEntries == 0 {
				t.Fatalf("windowed campaign never used the window: %d windowed, %d entries",
					winSnap.WindowedRuns, winSnap.WindowEntries)
			}
			if tc.wantExits && winSnap.WindowExits == 0 {
				t.Fatalf("no run handed its tail back to the functional tier: %+v", winSnap)
			}
			if winSnap.FastSteps == 0 || winSnap.FastTierShare == 0 {
				t.Fatalf("windowed campaign did no fast-tier work: %+v", winSnap)
			}
			t.Logf("%s: %d/%d runs exited the window, fast-tier share %.1f%%",
				tool, winSnap.WindowExits, winSnap.WindowedRuns, 100*winSnap.FastTierShare)

			fullCls, winCls := classesPerMask(t, full), classesPerMask(t, windowed)
			same, total := 0, 0
			for i := range fullCls {
				drift := map[core.Class]int{}
				for j := range fullCls[i] {
					total++
					if fullCls[i][j] == winCls[i][j] {
						same++
					} else {
						t.Logf("%s mask %d: window-off %s, window-on %s (borderline reclassification)",
							specs[i].Structure, j, fullCls[i][j], winCls[i][j])
					}
					drift[fullCls[i][j]]--
					drift[winCls[i][j]]++
				}
				for cls, d := range drift {
					if d < 0 {
						d = -d
					}
					if max := len(fullCls[i]) / 5; d > max {
						t.Errorf("%s: class %s count drifts by %d under windowing (tolerance %d of %d masks)",
							specs[i].Structure, cls, d, max, len(fullCls[i]))
					}
				}
			}
			if same*10 < total*7 {
				t.Errorf("only %d/%d masks classify identically under windowing (want >= 70%%)", same, total)
			}
			t.Logf("%s: %d/%d masks classify identically", tool, same, total)
		})
	}
}

// TestWindowExitsWithoutEarlyStop pins down the MaFIN window exit path.
// With early-stop on, every qsort rf.int mask is proven masked at the
// injection site, so no tail survives to be handed back (see
// TestDetailWindowDifferential). With early-stop disabled the runs keep
// going, the applied faults are architecturally capture-safe in the
// drained register file, and the tails must run on the functional tier
// — with the class verdicts still agreeing with the full cycle-accurate
// runs.
func TestWindowExitsWithoutEarlyStop(t *testing.T) {
	f := qsortFactory(t, sims.MaFINX86)
	specs := windowSpecs(t, sims.MaFINX86, f, 15, 41)[:1] // rf.int only

	run := func(window bool) (*core.CampaignResult, telemetry.Snapshot) {
		col := telemetry.New()
		opt := core.CampaignConfig{Workers: 4, DisableEarlyStop: true}
		if window {
			opt.DetailWindow = true
			opt.WindowPre = 2000
			opt.WindowPost = 1000
		}
		res, err := runSpecs(specs, opt, core.Attach{Telemetry: col})
		if err != nil {
			t.Fatal(err)
		}
		return res[0], col.Snapshot()
	}
	full, _ := run(false)
	windowed, snap := run(true)

	if snap.WindowExits == 0 || snap.FastSteps == 0 {
		t.Fatalf("no functional tails ran: %+v", snap)
	}
	t.Logf("mafin-x86 no-early-stop: %d/%d exits, fast-tier share %.1f%%",
		snap.WindowExits, snap.WindowedRuns, 100*snap.FastTierShare)
	same := 0
	for j := range full.Records {
		fc, _ := (core.Parser{}).Classify(full.Records[j])
		wc, _ := (core.Parser{}).Classify(windowed.Records[j])
		if fc == wc {
			same++
		} else {
			t.Logf("mask %d: window-off %s, window-on %s", j, fc, wc)
		}
	}
	if same*10 < len(full.Records)*7 {
		t.Errorf("only %d/%d masks classify identically (want >= 70%%)", same, len(full.Records))
	}
}

// TestWindowVerifyAgrees runs the differential guard itself: a windowed
// campaign with -window-verify re-simulates a sample fully
// cycle-accurately from the same window entries, and the matrix fails on
// any outcome-class disagreement. Zero disagreements is the acceptance
// bar of the window-exit proof.
func TestWindowVerifyAgrees(t *testing.T) {
	f := qsortFactory(t, sims.GeFINARM)
	specs := windowSpecs(t, sims.GeFINARM, f, 20, 23)
	col := telemetry.New()
	if _, err := runSpecs(specs, core.CampaignConfig{
		Workers:      4,
		DetailWindow: true, WindowPre: 2000, WindowPost: 1000, WindowVerify: 6,
	}, core.Attach{Telemetry: col}); err != nil {
		t.Fatalf("window-verify: %v", err)
	}
	if snap := col.Snapshot(); snap.WindowExits == 0 {
		t.Fatalf("no run exited its window — the guard verified nothing: %+v", snap)
	}
}

// FastSteps counts what the functional tier executed for a run. A window
// entry resumed from a fast-forward rung executes only the stretch past
// the rung, so the same campaign reports fewer functional steps with the
// rung ladder than fast-forwarding every entry from boot (the row
// BootWindowEntries empties) — with every record identical, since the
// ladder only changes where the replay starts.
func TestFastStepsCountExecutedInstructions(t *testing.T) {
	f := qsortFactory(t, sims.GeFINX86)
	specs := windowSpecs(t, sims.GeFINX86, f, 12, 41)[:1] // rf.int
	run := func(fromBoot bool) (*core.CampaignResult, telemetry.Snapshot) {
		cache := core.NewGoldenCache()
		if fromBoot {
			core.BootWindowEntries(cache, sims.GeFINX86, "qsort")
		}
		col := telemetry.New()
		res, err := runSpecs(specs, core.CampaignConfig{
			Workers: 2, DetailWindow: true, WindowPre: 2000, WindowPost: 1000,
		}, core.Attach{Telemetry: col, Golden: cache})
		if err != nil {
			t.Fatal(err)
		}
		return res[0], col.Snapshot()
	}
	boot, bootSnap := run(true)
	laddered, ladderSnap := run(false)
	if !reflect.DeepEqual(boot.Records, laddered.Records) {
		t.Fatal("records differ across fast-forward settings")
	}
	if bootSnap.FFRungHits+bootSnap.FFRungBuilds != 0 {
		t.Fatalf("the from-boot reference used a rung: %d hits, %d builds", bootSnap.FFRungHits, bootSnap.FFRungBuilds)
	}
	if bootSnap.WindowEntries == 0 || ladderSnap.FFRungHits+ladderSnap.FFRungBuilds == 0 {
		t.Fatalf("no window entry used the rung ladder: %d entries, %d rung hits, %d builds",
			bootSnap.WindowEntries, ladderSnap.FFRungHits, ladderSnap.FFRungBuilds)
	}
	if ladderSnap.FastSteps >= bootSnap.FastSteps {
		t.Fatalf("%d functional steps with the rung ladder, %d from boot: entries resumed from a rung counted its prefix",
			ladderSnap.FastSteps, bootSnap.FastSteps)
	}
	t.Logf("functional steps: %d from boot, %d from rungs", bootSnap.FastSteps, ladderSnap.FastSteps)
}

// TestTurboTierIsTheReference holds the functional tier's fast-forward
// rung ladder to the from-boot reference on every tool: the same
// windowed matrix — pruned and prune-verified, window-verified, with
// divergence provenance, a journal and a trace attached — runs once on
// the rows' ladders and once on rows BootWindowEntries emptied, so every
// window entry fast-forwards from boot. Records, trace, journal and
// divergence file must be byte-identical. Prune-verify re-runs every
// pruned mask, a dead one without the window: the dead verdict is a
// proof about the exact run, which the functional window entry only
// approximates (re-run windowed, dead mafin-x86 × rf.int mask 3 comes
// out SDC). The predecode cache under both runs is held to the
// slow decoder by internal/interp's TestDecodeCacheEquivalence and
// FuzzPredecodeMatchesDecode.
func TestTurboTierIsTheReference(t *testing.T) {
	tools := []string{sims.MaFINX86, sims.GeFINX86, sims.GeFINARM}
	var cells []core.CampaignCell
	for _, tool := range tools {
		for _, structure := range []string{"rf.int", "l1d.data"} {
			cells = append(cells, core.CampaignCell{Tool: tool, Benchmark: "qsort", Structure: structure})
		}
	}
	// One worker: the journal appends in completion order.
	cfg := core.CampaignConfig{
		Campaigns: cells, Injections: 16, Seed: 11, Workers: 1, LiveOnly: true, Prune: true, PruneVerify: 16,
		DetailWindow: true, WindowPre: 2000, WindowPost: 1000, WindowVerify: 2, Divergence: true,
	}
	run := func(name string, fromBoot bool) ([]*core.CampaignResult, [3][]byte, telemetry.Snapshot) {
		cache := core.NewGoldenCache()
		if fromBoot {
			for _, tool := range tools {
				core.BootWindowEntries(cache, tool, "qsort")
			}
		}
		path := filepath.Join(t.TempDir(), name+".journal.jsonl")
		j, err := fault.OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		col := telemetry.New()
		trace := telemetry.NewTraceSink()
		col.AddSink(trace)
		res, err := core.RunConfig(cfg, simsResolver(t), core.Attach{
			Telemetry: col, Journal: j, Golden: cache,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		var tb, db bytes.Buffer
		if err := trace.Flush(&tb); err != nil {
			t.Fatal(err)
		}
		if err := divergence.WriteRecords(&db, core.DivergenceRows(res)); err != nil {
			t.Fatal(err)
		}
		journal, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return res, [3][]byte{tb.Bytes(), db.Bytes(), journal}, col.Snapshot()
	}
	ref, refFiles, refSnap := run("boot", true)
	turbo, turboFiles, turboSnap := run("turbo", false)

	if refSnap.FFRungHits+refSnap.FFRungBuilds != 0 {
		t.Fatalf("the from-boot reference used a rung: %d hits, %d builds", refSnap.FFRungHits, refSnap.FFRungBuilds)
	}
	if turboSnap.WindowEntries == 0 || turboSnap.FFRungHits+turboSnap.FFRungBuilds == 0 {
		t.Fatalf("no window entry used the rung ladder: %d entries, %d rung hits, %d builds",
			turboSnap.WindowEntries, turboSnap.FFRungHits, turboSnap.FFRungBuilds)
	}
	for i := range ref {
		if !reflect.DeepEqual(turbo[i].Records, ref[i].Records) {
			t.Errorf("%s: records differ from the from-boot reference", cells[i].Tool+"/"+cells[i].Structure)
		}
	}
	for i, name := range []string{"trace", "divergence file", "journal"} {
		if len(refFiles[i]) == 0 {
			t.Errorf("the reference wrote an empty %s", name)
		}
		if !bytes.Equal(turboFiles[i], refFiles[i]) {
			t.Errorf("%s differs from the from-boot reference (%d vs %d bytes)", name, len(turboFiles[i]), len(refFiles[i]))
		}
	}
	t.Logf("%d window entries, %d rung hits, %d rung builds; functional steps %d from boot, %d from rungs",
		turboSnap.WindowEntries, turboSnap.FFRungHits, turboSnap.FFRungBuilds, refSnap.FastSteps, turboSnap.FastSteps)
}

// TestWindowComposesWithPruneLadderResume is the composition
// differential: detail-window execution stacked with liveness pruning
// (plus its verify guard), a checkpoint ladder, and a journal resumed
// mid-campaign must reproduce the uninterrupted windowed run's records
// and injection trace byte-identically.
func TestWindowComposesWithPruneLadderResume(t *testing.T) {
	f := qsortFactory(t, sims.GeFINX86)
	buildSpecs := func() []core.CampaignSpec { return windowSpecs(t, "gefin-x86", f, 25, 17) }
	run := func(path string, resume bool) ([]*core.CampaignResult, []byte, telemetry.Snapshot) {
		j, err := fault.OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		col := telemetry.New()
		trace := telemetry.NewTraceSink()
		col.AddSink(trace)
		res, err := runSpecs(buildSpecs(), core.CampaignConfig{
			Workers: 4,
			Prune:   true, PruneVerify: 2, CheckpointLadder: 3,
			DetailWindow: true, WindowPre: 2000, WindowPost: 1000, WindowVerify: 3,
		}, core.Attach{Telemetry: col, Journal: j, Resume: resume})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes(), col.Snapshot()
	}

	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.journal.jsonl")
	resPath := filepath.Join(dir, "resumed.journal.jsonl")
	ref, refTrace, refSnap := run(refPath, false)
	if refSnap.WindowExits == 0 {
		t.Fatalf("composed campaign never exited a window: %+v", refSnap)
	}

	data, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(resPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	total := strings.Count(string(data), "\n")
	if total < 2 {
		t.Fatalf("reference journal has only %d lines", total)
	}
	truncateLines(t, resPath, total/2)

	got, gotTrace, _ := run(resPath, true)
	for s := range ref {
		if !reflect.DeepEqual(got[s].Records, ref[s].Records) {
			t.Fatalf("campaign %d: resumed windowed records differ from reference", s)
		}
	}
	if !bytes.Equal(gotTrace, refTrace) {
		t.Fatalf("resumed windowed trace differs from the uninterrupted trace")
	}
}
