// Package repro's benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation, plus the two ablation benchmarks
// DESIGN.md calls out (§III.B early-stop optimizations; §III.C cache
// data-array modelling). The figure benchmarks run reduced injection
// campaigns per iteration and report the measured vulnerabilities as
// custom metrics; the paper-scale campaigns are run with cmd/figures.
package repro_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/gem5"
	"repro/internal/interp"
	"repro/internal/marss"
	"repro/internal/report"
	"repro/internal/sims"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// benchOptions keeps per-iteration campaign cost bounded; the shape of
// the result (who wins) is stable even at this reduced scale.
func benchOptions(seed int64) report.Options {
	return report.Options{
		Campaign:   core.CampaignConfig{Injections: 25, Seed: seed, Workers: 1},
		Benchmarks: []string{"qsort", "sha"},
	}
}

// runSpecs runs hand-built specs through core.RunConfig: every spec
// becomes a cell carrying its masks explicitly, the resolver hands back
// the spec's factory, and cfg supplies the knobs.
func runSpecs(specs []core.CampaignSpec, cfg core.CampaignConfig, att core.Attach) ([]*core.CampaignResult, error) {
	type row struct{ tool, bench string }
	factories := make(map[row]core.Factory)
	for _, s := range specs {
		cfg.Campaigns = append(cfg.Campaigns, core.CampaignCell{
			Tool: s.Tool, Benchmark: s.Benchmark, Structure: s.Structure, Masks: s.Masks,
		})
		factories[row{s.Tool, s.Benchmark}] = s.Factory
	}
	return core.RunConfig(cfg, func(tool, bench string) (core.Factory, error) {
		return factories[row{tool, bench}], nil
	}, att)
}

// benchFigure runs one classification figure campaign per iteration and
// reports the per-tool vulnerability.
func benchFigure(b *testing.B, figID int) {
	b.Helper()
	spec, err := report.FigureByID(figID)
	if err != nil {
		b.Fatal(err)
	}
	var last *report.FigureData
	for i := 0; i < b.N; i++ {
		fd, err := report.RunFigure(spec, benchOptions(int64(figID)), nil)
		if err != nil {
			b.Fatal(err)
		}
		last = fd
	}
	for _, tool := range last.Tools() {
		b.ReportMetric(last.Average(tool).Vulnerability(), "vuln%/"+sims.ShortLabel(tool))
	}
}

// BenchmarkFig2RegFile regenerates Figure 2 (integer physical register
// file classification).
func BenchmarkFig2RegFile(b *testing.B) { benchFigure(b, 2) }

// BenchmarkFig3L1D regenerates Figure 3 (L1D data arrays).
func BenchmarkFig3L1D(b *testing.B) { benchFigure(b, 3) }

// BenchmarkFig4L1I regenerates Figure 4 (L1I instruction arrays).
func BenchmarkFig4L1I(b *testing.B) { benchFigure(b, 4) }

// BenchmarkFig5L2 regenerates Figure 5 (L2 data arrays).
func BenchmarkFig5L2(b *testing.B) { benchFigure(b, 5) }

// BenchmarkFig6LSQ regenerates Figure 6 (load/store queue data field).
func BenchmarkFig6LSQ(b *testing.B) { benchFigure(b, 6) }

// BenchmarkTable2Configs builds the three Table II machine
// configurations and boots one simulator of each.
func BenchmarkTable2Configs(b *testing.B) {
	w, err := workload.ByName("qsort")
	if err != nil {
		b.Fatal(err)
	}
	imgC, err := w.Image(asm.TargetCISC)
	if err != nil {
		b.Fatal(err)
	}
	imgR, err := w.Image(asm.TargetRISC)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = marss.New(marss.DefaultConfig(), imgC)
		_ = gem5.New(gem5.DefaultConfig(gem5.ISAX86), imgC)
		_ = gem5.New(gem5.DefaultConfig(gem5.ISAARM), imgR)
	}
}

// BenchmarkTable3FaultModels exercises the Table III fault-model
// generator across all three models plus multi-bit masks.
func BenchmarkTable3FaultModels(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range []fault.Model{fault.ModelTransient, fault.ModelIntermittent, fault.ModelPermanent} {
			if _, err := fault.Generate(fault.GeneratorSpec{
				Structure: "l1d.data", Entries: 512, BitsPerEntry: 512,
				MaxCycle: 100000, Model: m, Count: 100, Seed: int64(i),
			}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := fault.Generate(fault.GeneratorSpec{
			Structure: "rf.int", Entries: 256, BitsPerEntry: 64,
			MaxCycle: 100000, Model: fault.ModelTransient, Count: 100,
			Seed: int64(i), SitesPerMask: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Structures enumerates the injectable structures of
// every tool (the Table IV inventory).
func BenchmarkTable4Structures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.RenderStructuresTable(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplingTable computes the §IV.A statistical sampling numbers
// and pins the paper's values.
func BenchmarkSamplingTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if n := fault.SampleSize(0, 0.99, 0.03); n != 1843 {
			b.Fatalf("n = %d, want 1843", n)
		}
		if n := fault.SampleSize(0, 0.99, 0.05); n != 663 {
			b.Fatalf("n = %d, want 663", n)
		}
	}
	b.ReportMetric(100*fault.MarginFor(0, 2000, 0.99), "margin%@2000")
}

// BenchmarkRemarkStats collects the fault-free runtime statistics that
// back Remarks 1–11 and reports the Remark 3 issued-load ratio.
func BenchmarkRemarkStats(b *testing.B) {
	opt := report.Options{Benchmarks: []string{"qsort", "sha", "fft"}}
	var stats map[string]map[string]map[string]uint64
	var err error
	for i := 0; i < b.N; i++ {
		stats, err = report.GoldenStats(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	var m, g float64
	for _, bench := range opt.Benchmarks {
		m += float64(stats[bench][sims.MaFINX86]["issued_loads"])
		g += float64(stats[bench][sims.GeFINX86]["issued_loads"])
	}
	b.ReportMetric(m/g, "issuedloads-M/G")
}

// BenchmarkEarlyStopAblation measures the §III.B early-stop
// optimizations: the same campaign with and without the invalid-entry
// and overwritten-before-read stops. The paper reports 30–70% per-run
// savings.
func BenchmarkEarlyStopAblation(b *testing.B) {
	w, err := workload.ByName("sha")
	if err != nil {
		b.Fatal(err)
	}
	factory, err := sims.Factory(sims.GeFINX86, w)
	if err != nil {
		b.Fatal(err)
	}
	golden, err := core.Golden(factory)
	if err != nil {
		b.Fatal(err)
	}
	sim := factory()
	arr := sim.Structures()["l1d.data"]
	masks, err := fault.Generate(fault.GeneratorSpec{
		Structure: "l1d.data", Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry(),
		MaxCycle: golden.Cycles, Model: fault.ModelTransient, Count: 30, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		b.Run("earlystop-"+mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runSpecs([]core.CampaignSpec{{
					Tool: sims.GeFINX86, Benchmark: "sha", Structure: "l1d.data",
					Masks: masks, Factory: factory,
				}}, core.CampaignConfig{Workers: 1, DisableEarlyStop: mode.disable}, core.Attach{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInOrderAblation runs the OoO-vs-in-order reliability study the
// paper suggests for MARSS's two pipeline models: the same register-file
// fault population injected into the Table II OoO model and the
// Atom-like in-order model, reporting both vulnerabilities.
func BenchmarkInOrderAblation(b *testing.B) {
	w, err := workload.ByName("sha")
	if err != nil {
		b.Fatal(err)
	}
	img, err := w.Image(asm.TargetCISC)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		cfg  marss.Config
	}{{"ooo", marss.DefaultConfig()}, {"inorder", marss.InOrderConfig()}} {
		b.Run(mode.name, func(b *testing.B) {
			factory := func() core.Simulator { return marss.New(mode.cfg, img) }
			golden, err := core.Golden(factory)
			if err != nil {
				b.Fatal(err)
			}
			masks, err := fault.Generate(fault.GeneratorSpec{
				Structure: "rf.int", Entries: 256, BitsPerEntry: 64,
				MaxCycle: golden.Cycles, Model: fault.ModelTransient, Count: 25, Seed: 31,
			})
			if err != nil {
				b.Fatal(err)
			}
			var vuln float64
			for i := 0; i < b.N; i++ {
				res, err := runSpecs([]core.CampaignSpec{{
					Tool: sims.MaFINX86, Benchmark: "sha", Structure: "rf.int",
					Masks: masks, Factory: factory,
				}}, core.CampaignConfig{Workers: 1}, core.Attach{})
				if err != nil {
					b.Fatal(err)
				}
				vuln = (core.Parser{}).ParseAll(res[0].Records).Vulnerability()
			}
			b.ReportMetric(vuln, "vuln%")
		})
	}
}

// BenchmarkCheckpointAblation measures checkpoint-based prefix sharing:
// the masks booted one by one with core.RunOne versus the campaign,
// whose runs restore from the highest rung of the row's shared
// checkpoint ladder below their first fault (the paper's use of
// simulator checkpoints to speed up campaigns).
func BenchmarkCheckpointAblation(b *testing.B) {
	w, err := workload.ByName("qsort")
	if err != nil {
		b.Fatal(err)
	}
	factory, err := sims.Factory(sims.MaFINX86, w)
	if err != nil {
		b.Fatal(err)
	}
	golden, err := core.Golden(factory)
	if err != nil {
		b.Fatal(err)
	}
	sim := factory()
	arr := sim.Structures()["rf.int"]
	// Late faults benefit most: all in the last third of the run.
	masks, err := fault.Generate(fault.GeneratorSpec{
		Structure: "rf.int", Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry(),
		MaxCycle: golden.Cycles / 3, Model: fault.ModelTransient, Count: 20, Seed: 21,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := range masks {
		for j := range masks[i].Sites {
			masks[i].Sites[j].Cycle += 2 * golden.Cycles / 3
		}
	}
	b.Run("from-boot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, m := range masks {
				if _, err := core.RunOne(factory, m, golden, 0, true); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("from-checkpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runSpecs([]core.CampaignSpec{{
				Tool: sims.MaFINX86, Benchmark: "qsort", Structure: "rf.int",
				Masks: masks, Factory: factory,
			}}, core.CampaignConfig{Workers: 1}, core.Attach{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMatrixScheduler measures the cross-campaign matrix scheduler:
// every injection run of a {tool} × {qsort, sha} × {rf.int, lsq.data}
// matrix flattened onto one shared worker pool, with golden runs
// memoized per {tool, benchmark} row. Each iteration runs the whole
// matrix with a fresh private golden cache, so the reported throughput
// includes the amortized golden cost. Metrics: injection runs per
// second and simulated megacycles per second.
func BenchmarkMatrixScheduler(b *testing.B) {
	type row struct {
		tool, bench string
		factory     core.Factory
		golden      core.GoldenInfo
	}
	var rows []row
	cache := core.NewGoldenCache()
	for _, tool := range []string{sims.MaFINX86, sims.GeFINX86} {
		for _, bench := range []string{"qsort", "sha"} {
			w, err := workload.ByName(bench)
			if err != nil {
				b.Fatal(err)
			}
			factory, err := sims.Factory(tool, w)
			if err != nil {
				b.Fatal(err)
			}
			golden, err := cache.Golden(tool, bench, factory)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{tool, bench, factory, golden})
		}
	}
	buildSpecs := func() []core.CampaignSpec {
		var specs []core.CampaignSpec
		for _, r := range rows {
			for _, structure := range []string{"rf.int", "lsq.data"} {
				entries, bits, ok, err := cache.Geometry(r.tool, r.bench, r.factory, structure)
				if err != nil || !ok {
					b.Fatalf("geometry %s/%s: ok=%v err=%v", r.tool, structure, ok, err)
				}
				masks, err := fault.Generate(fault.GeneratorSpec{
					Structure: structure, Entries: entries, BitsPerEntry: bits,
					MaxCycle: r.golden.Cycles, Model: fault.ModelTransient, Count: 10, Seed: 41,
				})
				if err != nil {
					b.Fatal(err)
				}
				specs = append(specs, core.CampaignSpec{
					Tool: r.tool, Benchmark: r.bench, Structure: structure,
					Masks: masks, Factory: r.factory,
				})
			}
		}
		return specs
	}
	for _, workers := range []int{1, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			var runs int
			var cycles uint64
			for i := 0; i < b.N; i++ {
				// No shared cache: each iteration's matrix pays one
				// memoized golden run per row.
				results, err := runSpecs(buildSpecs(), core.CampaignConfig{Workers: workers}, core.Attach{})
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					runs += len(res.Records)
					for _, rec := range res.Records {
						cycles += rec.Cycles
					}
				}
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(runs)/sec, "runs/s")
				b.ReportMetric(float64(cycles)/1e6/sec, "Mcycles/s")
			}
		})
	}
}

func benchName(prefix string, n int) string {
	return fmt.Sprintf("%s-%d", prefix, n)
}

// BenchmarkMatrixSchedulerTelemetry is BenchmarkMatrixScheduler with the
// telemetry layer fully attached — collector, golden source, and a
// buffering trace sink — pinning the observability overhead against the
// bare scheduler (acceptance: within 2%).
func BenchmarkMatrixSchedulerTelemetry(b *testing.B) {
	w, err := workload.ByName("qsort")
	if err != nil {
		b.Fatal(err)
	}
	factory, err := sims.Factory(sims.GeFINX86, w)
	if err != nil {
		b.Fatal(err)
	}
	cache := core.NewGoldenCache()
	golden, err := cache.Golden(sims.GeFINX86, "qsort", factory)
	if err != nil {
		b.Fatal(err)
	}
	buildSpecs := func() []core.CampaignSpec {
		var specs []core.CampaignSpec
		for _, structure := range []string{"rf.int", "lsq.data"} {
			entries, bits, ok, err := cache.Geometry(sims.GeFINX86, "qsort", factory, structure)
			if err != nil || !ok {
				b.Fatalf("geometry %s: ok=%v err=%v", structure, ok, err)
			}
			masks, err := fault.Generate(fault.GeneratorSpec{
				Structure: structure, Entries: entries, BitsPerEntry: bits,
				MaxCycle: golden.Cycles, Model: fault.ModelTransient, Count: 10, Seed: 41,
			})
			if err != nil {
				b.Fatal(err)
			}
			specs = append(specs, core.CampaignSpec{
				Tool: sims.GeFINX86, Benchmark: "qsort", Structure: structure,
				Masks: masks, Factory: factory,
			})
		}
		return specs
	}
	for _, mode := range []struct {
		name string
		tel  bool
	}{{"bare", false}, {"collector+trace", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var att core.Attach
				if mode.tel {
					att.Telemetry = telemetry.New()
					att.Telemetry.AddSink(telemetry.NewTraceSink())
				}
				if _, err := runSpecs(buildSpecs(), core.CampaignConfig{Workers: 8}, att); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDataArrayAblation measures the §III.C cost of modelling the
// cache data arrays in the MARSS-like simulator: fault-free runs with
// the arrays modelled (MaFIN) versus the tags-only original MARSS. The
// paper reports ~40% throughput degradation from the data-array
// extension.
func BenchmarkDataArrayAblation(b *testing.B) {
	w, err := workload.ByName("sha")
	if err != nil {
		b.Fatal(err)
	}
	img, err := w.Image(asm.TargetCISC)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		model bool
	}{{"with-data-arrays", true}, {"tags-only", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := marss.DefaultConfig()
			cfg.ModelDataArrays = mode.model
			for i := 0; i < b.N; i++ {
				cpu := marss.New(cfg, img)
				res := cpu.Run(1 << 62)
				if res.Status != core.RunCompleted {
					b.Fatalf("run: %v", res.Status)
				}
			}
		})
	}
}

// BenchmarkPruneAblation measures golden-run liveness pruning on the
// cache campaigns it targets: a transient-fault L1D + L2 data-array
// matrix at a fixed seed, once fully simulated and once with the pruner
// settling dead and replicated masks at plan time. The pruned variant
// pays the profiled fault-free replay up front; the acceptance bar is a
// >=2x wall-clock speedup (results/BENCH_prune.json records the
// measured pair).
func BenchmarkPruneAblation(b *testing.B) {
	w, err := workload.ByName("qsort")
	if err != nil {
		b.Fatal(err)
	}
	factory, err := sims.Factory(sims.GeFINX86, w)
	if err != nil {
		b.Fatal(err)
	}
	cache := core.NewGoldenCache()
	golden, err := cache.Golden(sims.GeFINX86, "qsort", factory)
	if err != nil {
		b.Fatal(err)
	}
	buildSpecs := func() []core.CampaignSpec {
		var specs []core.CampaignSpec
		for _, structure := range []string{"l1d.data", "l2.data"} {
			entries, bits, ok, err := cache.Geometry(sims.GeFINX86, "qsort", factory, structure)
			if err != nil || !ok {
				b.Fatalf("geometry %s: ok=%v err=%v", structure, ok, err)
			}
			masks, err := fault.Generate(fault.GeneratorSpec{
				Structure: structure, Entries: entries, BitsPerEntry: bits,
				MaxCycle: golden.Cycles, Model: fault.ModelTransient, Count: 40, Seed: 17,
			})
			if err != nil {
				b.Fatal(err)
			}
			specs = append(specs, core.CampaignSpec{
				Tool: sims.GeFINX86, Benchmark: "qsort", Structure: structure,
				Masks: masks, Factory: factory,
			})
		}
		return specs
	}
	for _, mode := range []struct {
		name  string
		prune bool
	}{{"unpruned", false}, {"pruned", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var runs, prunedRuns int
			for i := 0; i < b.N; i++ {
				// A private cache per iteration: both modes pay the row's
				// golden run, the pruned one its profiled replays too.
				results, err := runSpecs(buildSpecs(), core.CampaignConfig{
					Workers: 4, Prune: mode.prune,
				}, core.Attach{})
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					runs += len(res.Records)
					for _, rec := range res.Records {
						if rec.Status == core.RunPruned.String() {
							prunedRuns++
						}
					}
				}
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(runs)/sec, "runs/s")
			}
			if runs > 0 {
				b.ReportMetric(100*float64(prunedRuns)/float64(runs), "pruned%")
			}
		})
	}
}

// BenchmarkCheckpointLadder measures a dense checkpoint ladder against a
// one-rung one on a campaign whose faults are spread over the whole run:
// the single rung at mid-run helps only the later half, while six give
// every run a rung close below its own first fault.
func BenchmarkCheckpointLadder(b *testing.B) {
	w, err := workload.ByName("qsort")
	if err != nil {
		b.Fatal(err)
	}
	factory, err := sims.Factory(sims.GeFINX86, w)
	if err != nil {
		b.Fatal(err)
	}
	golden, err := core.Golden(factory)
	if err != nil {
		b.Fatal(err)
	}
	sim := factory()
	arr := sim.Structures()["rf.int"]
	masks, err := fault.Generate(fault.GeneratorSpec{
		Structure: "rf.int", Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry(),
		MaxCycle: golden.Cycles, Model: fault.ModelTransient, Count: 30, Seed: 23,
	})
	if err != nil {
		b.Fatal(err)
	}
	spec := func() []core.CampaignSpec {
		return []core.CampaignSpec{{
			Tool: sims.GeFINX86, Benchmark: "qsort", Structure: "rf.int",
			Masks: masks, Factory: factory,
		}}
	}
	for _, mode := range []struct {
		name   string
		ladder int
	}{{"one-rung", 1}, {"ladder-6", 6}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runSpecs(spec(), core.CampaignConfig{
					Workers: 4, CheckpointLadder: mode.ladder,
				}, core.Attach{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGoldenProfileOverhead pins the cost of the liveness profiler
// on the fault-free run it rides: the same golden run plain and with
// every targeted cache array profiled. The profiled sub-benchmark also
// reports its slowdown against a plain baseline measured in the same
// invocation; the acceptance bar is <5% overhead.
func BenchmarkGoldenProfileOverhead(b *testing.B) {
	w, err := workload.ByName("qsort")
	if err != nil {
		b.Fatal(err)
	}
	factory, err := sims.Factory(sims.GeFINX86, w)
	if err != nil {
		b.Fatal(err)
	}
	run := func(profiled bool) uint64 {
		sim := factory()
		if profiled {
			cs := sim.(core.CycleSource)
			for _, name := range []string{"l1d.data", "l2.data"} {
				sim.Structures()[name].StartProfile(cs.CurrentCycle)
			}
		}
		res := sim.Run(1 << 62)
		if res.Status != core.RunCompleted {
			b.Fatalf("golden run: %v", res.Status)
		}
		return res.Cycles
	}
	baseline := func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			run(false)
		}
		return time.Since(start)
	}
	for _, mode := range []struct {
		name     string
		profiled bool
	}{{"plain", false}, {"profiled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles += run(mode.profiled)
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(cycles)/1e6/sec, "Mcycles/s")
			}
			if mode.profiled {
				elapsed := b.Elapsed()
				b.StopTimer()
				plain := baseline(b.N)
				if plain > 0 {
					b.ReportMetric(100*(float64(elapsed)/float64(plain)-1), "overhead%")
				}
			}
		})
	}
}

// BenchmarkDetailWindow measures detail-window simulation against the
// prune+ladder baseline on the campaigns windowing targets:
// register-file and L1D transients remapped onto the live-entry
// population (the -live-only sampling), so the liveness pruner cannot
// settle most of them at plan time and the two modes differ on real
// simulated runs. The baseline simulates rung-to-outcome
// cycle-accurately; the windowed mode runs functionally everywhere
// outside a ~3k-cycle detail window around the fault. The acceptance
// bar is a >=5x runs/s speedup over the baseline mode
// (results/BENCH_window.json records the measured set).
func BenchmarkDetailWindow(b *testing.B) {
	buildSpecs, _ := windowedCampaign(b)
	for _, mode := range []struct {
		name   string
		window bool
	}{{"prune+ladder", false}, {"window+prune+ladder", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var runs uint64
			var snap telemetry.Snapshot
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				col := telemetry.New()
				opt := core.CampaignConfig{
					Workers: 4,
					Prune:   true, CheckpointLadder: 3,
				}
				if mode.window {
					opt.DetailWindow = true
					opt.WindowPre = 2000
					opt.WindowPost = 1000
				}
				results, err := runSpecs(buildSpecs(), opt, core.Attach{Telemetry: col})
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					runs += uint64(len(res.Records))
				}
				snap = col.Snapshot()
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(runs)/sec, "runs/s")
			}
			if mode.window {
				b.ReportMetric(100*snap.FastTierShare, "fast%")
			}
		})
	}
}

// windowedCampaign builds the detail-window benchmark matrix:
// register-file and L1D transients remapped onto the live-entry
// population so the liveness pruner cannot settle most of them at plan
// time. The builder regenerates fresh specs per iteration; the returned
// cache memoizes the golden run, live entries, ladder, and the
// divergence commit signature across iterations.
func windowedCampaign(b *testing.B) (func() []core.CampaignSpec, *core.GoldenCache) {
	b.Helper()
	w, err := workload.ByName("qsort")
	if err != nil {
		b.Fatal(err)
	}
	factory, err := sims.Factory(sims.GeFINX86, w)
	if err != nil {
		b.Fatal(err)
	}
	cache := core.NewGoldenCache()
	golden, err := cache.Golden(sims.GeFINX86, "qsort", factory)
	if err != nil {
		b.Fatal(err)
	}
	sim := factory()
	buildSpecs := func() []core.CampaignSpec {
		var specs []core.CampaignSpec
		for _, structure := range []string{"rf.int", "l1d.data"} {
			arr := sim.Structures()[structure]
			masks, err := fault.Generate(fault.GeneratorSpec{
				Structure: structure, Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry(),
				MaxCycle: golden.Cycles, Model: fault.ModelTransient, Count: 60, Seed: 29,
			})
			if err != nil {
				b.Fatal(err)
			}
			live, err := cache.LiveEntries(sims.GeFINX86, "qsort", factory, structure)
			if err != nil || len(live) == 0 {
				b.Fatalf("live entries for %s: %d (%v)", structure, len(live), err)
			}
			for mi := range masks {
				for si := range masks[mi].Sites {
					masks[mi].Sites[si].Entry = live[masks[mi].Sites[si].Entry%len(live)]
				}
			}
			specs = append(specs, core.CampaignSpec{
				Tool: sims.GeFINX86, Benchmark: "qsort", Structure: structure,
				Masks: masks, Factory: factory,
			})
		}
		return specs
	}
	return buildSpecs, cache
}

// BenchmarkDetailWindowDivergence measures the cost of divergence
// provenance recording on top of the windowed campaign: the same matrix
// as BenchmarkDetailWindow's windowed mode runs with and without a
// divergence sink attached. The probe folds each committed PC into a
// 64-instruction FNV block hash and stops comparing at the first
// mismatching block, so the acceptance bar is <5% overhead
// (results/BENCH_divergence.json records the measured pair).
func BenchmarkDetailWindowDivergence(b *testing.B) {
	buildSpecs, cache := windowedCampaign(b)
	run := func(div bool) uint64 {
		var runs uint64
		opt := core.CampaignConfig{
			Workers: 4,
			Prune:   true, CheckpointLadder: 3,
			DetailWindow: true, WindowPre: 2000, WindowPost: 1000,
		}
		att := core.Attach{Telemetry: telemetry.New(), Golden: cache}
		var sink *divergence.Sink
		if div {
			sink = divergence.NewSink()
			att.Divergence = sink
		}
		results, err := runSpecs(buildSpecs(), opt, att)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			runs += uint64(len(res.Records))
		}
		if div {
			if err := sink.Flush(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		return runs
	}
	// Warm the memoizer (golden run, live entries, ladder, commit
	// signature) outside any timed region so neither mode pays it.
	run(true)
	b.Run("window", func(b *testing.B) {
		var runs uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runs += run(false)
		}
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(runs)/sec, "runs/s")
		}
	})
	// The overhead pair is interleaved — one recorded iteration, one
	// plain iteration, alternating — so slow machine drift hits both
	// sides equally instead of skewing whichever phase ran second.
	b.Run("window+divergence", func(b *testing.B) {
		var runs uint64
		var plain time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runs += run(true)
			b.StopTimer()
			start := time.Now()
			run(false)
			plain += time.Since(start)
			b.StartTimer()
		}
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(runs)/sec, "runs/s")
		}
		if plain > 0 {
			b.ReportMetric(100*(float64(b.Elapsed())/float64(plain)-1), "overhead%")
		}
	})
}

// BenchmarkInterpDispatch measures the functional interpreter's raw
// dispatch rate (steps/s over a full fault-free qsort run, both ISAs)
// with the predecoded-instruction cache on and off — the micro view of
// the interpreter tax the cache eliminates
// (results/BENCH_interp.json records the measured pairs).
func BenchmarkInterpDispatch(b *testing.B) {
	w, err := workload.ByName("qsort")
	if err != nil {
		b.Fatal(err)
	}
	for _, tgt := range []asm.Target{asm.TargetCISC, asm.TargetRISC} {
		img, err := w.Image(tgt)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name  string
			cache bool
		}{{"cache", true}, {"nocache", false}} {
			b.Run(tgt.String()+"/"+mode.name, func(b *testing.B) {
				var steps uint64
				for i := 0; i < b.N; i++ {
					m := interp.New(img)
					if !mode.cache {
						m.DisableDecodeCache()
					}
					r := m.Continue(uint64(1) << 62)
					if r.Outcome != interp.Completed {
						b.Fatalf("functional run ended %v", r.Outcome)
					}
					steps += r.Steps
				}
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(steps)/sec, "steps/s")
				}
			})
		}
	}
}
