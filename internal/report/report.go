// Package report is the reproduction harness for the paper's evaluation
// (§IV): it drives full differential injection campaigns across the
// three tool configurations and the ten benchmarks, reproduces the data
// behind Figures 2–6 (faulty-behaviour classification per structure),
// the §IV.A statistical-sampling numbers, Tables II–IV, and the runtime
// statistics backing Remarks 1–11.
package report

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sims"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// FigureSpec identifies one of the paper's classification figures.
type FigureSpec struct {
	ID        int
	Structure string
	Title     string
}

// Figures lists the five reproduced figures in paper order.
var Figures = []FigureSpec{
	{2, "rf.int", "Integer physical register file"},
	{3, "l1d.data", "L1D cache (data arrays)"},
	{4, "l1i.data", "L1I cache (instruction arrays)"},
	{5, "l2.data", "L2 cache (data arrays)"},
	{6, "lsq.data", "Load/Store Queue (data field)"},
}

// FigureByID looks a figure spec up.
func FigureByID(id int) (FigureSpec, error) {
	for _, f := range Figures {
		if f.ID == id {
			return f, nil
		}
	}
	return FigureSpec{}, fmt.Errorf("report: no figure %d (have 2-6)", id)
}

// Options parameterize a reproduction run.
type Options struct {
	// Campaign carries the campaign knobs — injections, seed, fault model,
	// workers, checkpoint, prune, window, stop rule and the rest — exactly
	// as core.RunConfig reads them. Its Campaigns are ignored: the figure
	// specs supply the cells. Injections is the number of faults per
	// {tool, benchmark, structure} campaign (default 200); the paper uses
	// 2000 (2.88% margin at 99% confidence), and smaller values trade
	// accuracy for time exactly as §IV.A describes. LiveOnly is the
	// conditional-vulnerability view that factors out dead capacity: at
	// the paper's input scale the two views converge (their caches are
	// full of live data); at this reproduction's reduced scale it
	// recovers the large-structure comparisons (L2, Fig. 5) that uniform
	// sampling over mostly-dead arrays cannot resolve.
	Campaign core.CampaignConfig
	// Benchmarks restricts the benchmark set (default: all ten).
	Benchmarks []string
	// Tools restricts the tool set (default: all three).
	Tools []string
	// Logs, when non-nil, persists every campaign to the repository —
	// and, with Campaign.Divergence on, each cell's divergence records
	// beside its log (without Logs they are only measured).
	Logs *core.LogsRepo
	// Parser configures the classification.
	Parser core.Parser
	// GoldenCache, when non-nil, memoizes golden runs across report
	// calls; by default each RunFigures/RunCampaignFor call uses a
	// private cache.
	GoldenCache *core.GoldenCache
	// Telemetry, when non-nil, aggregates scheduler events across report
	// calls (live metrics snapshots, trace sinks). When nil and a
	// progress writer is passed, RunFigures uses a private collector to
	// drive the periodic progress lines.
	Telemetry *telemetry.Collector
	// Tracer, when non-nil, records the campaign's spans (matrix, cells,
	// runs and their phases).
	Tracer *telemetry.Tracer
	// ProgressEvery sets the period of the progress reporter lines
	// written to the progress writer (default 5s).
	ProgressEvery time.Duration
}

func (o Options) benchmarks() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return workload.Names()
}

func (o Options) tools() []string {
	if len(o.Tools) > 0 {
		return o.Tools
	}
	return sims.Tools()
}

func (o Options) injections() int {
	if o.Campaign.Injections > 0 {
		return o.Campaign.Injections
	}
	return 200
}

func (o Options) goldenCache() *core.GoldenCache {
	if o.GoldenCache != nil {
		return o.GoldenCache
	}
	return core.NewGoldenCache()
}

// Cell is one campaign of a figure: one bar of the paper's charts.
type Cell struct {
	Tool      string
	Benchmark string
	Breakdown core.Breakdown
	Golden    core.GoldenInfo
	// Adaptive carries the cell's adaptive-control outcome (early stop,
	// census completion, achieved margin) when the campaign ran under
	// one; nil for fixed-budget campaigns.
	Adaptive *core.AdaptiveInfo
}

// FigureData is the full dataset of one figure.
type FigureData struct {
	Spec  FigureSpec
	Cells []Cell // benchmark-major, tool-minor order
}

// seedFor derives a deterministic per-campaign seed.
func seedFor(base int64, fig int, bench, tool string) int64 {
	h := uint64(base) * 1099511628211
	mix := func(s string) {
		for _, c := range s {
			h = (h ^ uint64(c)) * 1099511628211
		}
	}
	h ^= uint64(fig) << 32
	mix(bench)
	mix(tool)
	return int64(h & (1<<62 - 1))
}

// cell is the config cell of one {tool, benchmark, structure} campaign,
// carrying its deterministic per-campaign seed.
func (o Options) cell(tool, bench, structure string) core.CampaignCell {
	return core.CampaignCell{
		Tool: tool, Benchmark: bench, Structure: structure,
		Seed: seedFor(o.Campaign.Seed, 0, bench, tool+structure),
	}
}

// runCells runs the cells as one campaign config through core.RunConfig
// and stores every cell's log, and its divergence file when the config
// measures divergence, in o.Logs.
func (o Options) runCells(cells []core.CampaignCell, cache *core.GoldenCache, collector *telemetry.Collector) ([]*core.CampaignResult, error) {
	cfg := o.Campaign
	cfg.Campaigns, cfg.Injections = cells, o.injections()
	results, err := core.RunConfig(cfg, cli.Resolve, core.Attach{Golden: cache, Telemetry: collector, Tracer: o.Tracer})
	if err != nil || o.Logs == nil {
		return results, err
	}
	for i, key := range cfg.Keys() {
		if err := o.Logs.StoreCampaign(key, []string{key}, results[i:i+1], nil, nil); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// RunCampaignFor runs one {tool, benchmark, structure} campaign.
func RunCampaignFor(tool, bench, structure string, opt Options) (*core.CampaignResult, error) {
	results, err := opt.runCells([]core.CampaignCell{opt.cell(tool, bench, structure)}, opt.goldenCache(), opt.Telemetry)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunFigure reproduces one classification figure.
func RunFigure(spec FigureSpec, opt Options, progress io.Writer) (*FigureData, error) {
	fds, err := RunFigures([]FigureSpec{spec}, opt, progress)
	if err != nil {
		return nil, err
	}
	return fds[0], nil
}

// RunFigures reproduces several classification figures through the
// cross-campaign matrix scheduler: every {figure, benchmark, tool}
// campaign is flattened into one shared run queue executed by a single
// global worker pool, the golden reference of each {tool, benchmark} row
// is simulated exactly once for the whole matrix, and each row's
// checkpoint ladder is shared across its structures. Output is
// deterministic for a fixed seed and identical to running the campaigns
// one at a time.
//
// A non-nil progress writer receives structured periodic progress lines
// (runs/s, Mcycles/s, worker utilization, outcome drift) from the
// telemetry collector — opt.Telemetry when set, a private one otherwise
// — instead of the old one-line-per-campaign prints.
func RunFigures(specs []FigureSpec, opt Options, progress io.Writer) ([]*FigureData, error) {
	cache := opt.goldenCache()
	prewarmGoldens(opt, cache)

	var cells []core.CampaignCell
	var figOf []int // the figure each cell belongs to
	for f, spec := range specs {
		for _, bench := range opt.benchmarks() {
			for _, tool := range opt.tools() {
				cells = append(cells, opt.cell(tool, bench, spec.Structure))
				figOf = append(figOf, f)
			}
		}
	}

	collector := opt.Telemetry
	if collector == nil && progress != nil {
		collector = telemetry.New()
	}
	var rep *telemetry.Reporter
	if progress != nil {
		runs := fmt.Sprintf("%d injection runs", len(cells)*opt.injections())
		if opt.Campaign.Exhaustive {
			runs = "one census per campaign"
		}
		fmt.Fprintf(progress, "matrix: %d figures, %d campaigns, %s\n", len(specs), len(cells), runs)
		rep = telemetry.StartReporter(collector, progress, opt.ProgressEvery)
		defer rep.Stop()
	}

	results, err := opt.runCells(cells, cache, collector)
	if rep != nil {
		rep.Stop()
	}
	if err != nil {
		return nil, err
	}
	if progress != nil {
		fmt.Fprintln(progress, collector.Snapshot().SummaryLine())
	}

	fds := make([]*FigureData, len(specs))
	for f, spec := range specs {
		fds[f] = &FigureData{Spec: spec}
	}
	for i, res := range results {
		fds[figOf[i]].Cells = append(fds[figOf[i]].Cells, Cell{
			Tool: cells[i].Tool, Benchmark: cells[i].Benchmark,
			Breakdown: opt.Parser.ParseAll(res.Records),
			Golden:    res.Golden,
			Adaptive:  res.Adaptive,
		})
	}
	return fds, nil
}

// prewarmGoldens runs the golden reference of every {tool, benchmark}
// row of the matrix in parallel, so rows don't serialize behind the
// first campaign that needs each. Errors are left in the cache and
// surface, in deterministic campaign order, when the specs are built.
func prewarmGoldens(opt Options, cache *core.GoldenCache) {
	workers := opt.Campaign.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, bench := range opt.benchmarks() {
		for _, tool := range opt.tools() {
			factory, err := cli.Resolve(tool, bench)
			if err != nil {
				continue
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(tool, bench string, factory core.Factory) {
				defer wg.Done()
				defer func() { <-sem }()
				_, _ = cache.Golden(tool, bench, factory)
			}(tool, bench, factory)
		}
	}
	wg.Wait()
}

// CellFor returns the cell of one benchmark and tool.
func (fd *FigureData) CellFor(bench, tool string) (Cell, bool) {
	for _, c := range fd.Cells {
		if c.Benchmark == bench && c.Tool == tool {
			return c, true
		}
	}
	return Cell{}, false
}

// Average aggregates a tool's breakdown across all benchmarks of the
// figure — the rightmost "average" bars of the paper's charts.
func (fd *FigureData) Average(tool string) core.Breakdown {
	agg := core.Breakdown{
		Counts:  make(map[core.Class]int),
		Details: make(map[core.Detail]int),
		Weights: make(map[core.Class]float64),
	}
	for _, c := range fd.Cells {
		if c.Tool != tool {
			continue
		}
		agg.Total += c.Breakdown.Total
		agg.WeightSum += c.Breakdown.WeightSum
		agg.NonUnit = agg.NonUnit || c.Breakdown.NonUnit
		for k, v := range c.Breakdown.Counts {
			agg.Counts[k] += v
		}
		for k, v := range c.Breakdown.Details {
			agg.Details[k] += v
		}
		for k, v := range c.Breakdown.Weights {
			agg.Weights[k] += v
		}
	}
	return agg
}

// Tools returns the tools present in the figure, in canonical order.
func (fd *FigureData) Tools() []string {
	seen := map[string]bool{}
	for _, c := range fd.Cells {
		seen[c.Tool] = true
	}
	var out []string
	for _, t := range sims.Tools() {
		if seen[t] {
			out = append(out, t)
		}
	}
	return out
}

// Benchmarks returns the benchmarks present, in canonical order.
func (fd *FigureData) Benchmarks() []string {
	seen := map[string]bool{}
	for _, c := range fd.Cells {
		seen[c.Benchmark] = true
	}
	var out []string
	for _, b := range workload.Names() {
		if seen[b] {
			out = append(out, b)
		}
	}
	return out
}

// Render prints the figure as the paper's stacked-bar data: one row per
// (benchmark, tool) with the six class percentages, then the averages.
func (fd *FigureData) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure %d. Faulty behavior classification for the %s.\n",
		fd.Spec.ID, fd.Spec.Title)
	fmt.Fprintf(w, "%-10s %-6s %8s %8s %8s %8s %8s %8s %8s\n",
		"benchmark", "tool", "Masked", "SDC", "DUE", "Timeout", "Crash", "Assert", "vuln")
	row := func(name, tool string, b core.Breakdown) {
		// Census cells render their cycle-mass-weighted proportions —
		// one representative stands for its whole liveness interval, so
		// the raw run shares over-count short intervals.
		pct, vuln := b.Pct, b.Vulnerability()
		if b.Weighted() {
			pct, vuln = b.WeightedPct, b.WeightedVulnerability()
		}
		fmt.Fprintf(w, "%-10s %-6s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			name, sims.ShortLabel(tool),
			pct(core.ClassMasked), pct(core.ClassSDC), pct(core.ClassDUE),
			pct(core.ClassTimeout), pct(core.ClassCrash), pct(core.ClassAssert),
			vuln)
	}
	for _, bench := range fd.Benchmarks() {
		for _, tool := range fd.Tools() {
			if c, ok := fd.CellFor(bench, tool); ok {
				row(bench, tool, c.Breakdown)
			}
		}
	}
	for _, tool := range fd.Tools() {
		row("AVERAGE", tool, fd.Average(tool))
	}
}

// ---- Golden runtime statistics (Remarks 1–11 support) -------------------------

// GoldenStats collects the fault-free runtime statistics of every tool
// and benchmark — the evidence base the paper uses to explain diverging
// reliability reports.
func GoldenStats(opt Options) (map[string]map[string]map[string]uint64, error) {
	out := make(map[string]map[string]map[string]uint64) // bench → tool → stats
	for _, bench := range opt.benchmarks() {
		out[bench] = make(map[string]map[string]uint64)
		for _, tool := range opt.tools() {
			factory, err := cli.Resolve(tool, bench)
			if err != nil {
				return nil, err
			}
			sim := factory()
			res := sim.Run(1 << 62)
			if res.Status != core.RunCompleted {
				return nil, fmt.Errorf("report: golden %s/%s: %v", tool, bench, res.Status)
			}
			out[bench][tool] = sim.Stats()
		}
	}
	return out, nil
}

// RenderRemarkStats prints the per-benchmark statistics ratios the
// paper's remarks cite: issued-vs-committed loads (Remark 3), store
// mixes and write misses (Remark 5), mispredictions (Remark 6), L1I
// replacements (Remark 7), and L2 write behaviour (Remarks 10–11).
func RenderRemarkStats(w io.Writer, stats map[string]map[string]map[string]uint64) {
	benches := make([]string, 0, len(stats))
	for b := range stats {
		benches = append(benches, b)
	}
	// Preserve canonical ordering.
	ordered := []string{}
	for _, b := range workload.Names() {
		for _, have := range benches {
			if have == b {
				ordered = append(ordered, b)
			}
		}
	}
	sort.Strings(benches)
	if len(ordered) > 0 {
		benches = ordered
	}

	ratio := func(a, b uint64) string {
		if b == 0 {
			return "     n/a"
		}
		return fmt.Sprintf("%7.2fx", float64(a)/float64(b))
	}
	fmt.Fprintln(w, "Runtime statistics backing the paper's remarks (fault-free runs)")
	fmt.Fprintf(w, "%-8s | %-24s | %-11s | %-11s | %-12s | %-13s\n",
		"bench",
		"issued loads M/G (R3)",
		"stores A/x86", "mispred M/G",
		"L1I miss A/x", "L1D wmiss A/x")
	for _, b := range benches {
		m := stats[b][sims.MaFINX86]
		gx := stats[b][sims.GeFINX86]
		ga := stats[b][sims.GeFINARM]
		if m == nil || gx == nil || ga == nil {
			continue
		}
		fmt.Fprintf(w, "%-8s | %s (%6d/%6d) | %s | %s | %s | %s\n",
			b,
			ratio(m["issued_loads"], gx["issued_loads"]), m["issued_loads"], gx["issued_loads"],
			ratio(ga["committed_stores"], gx["committed_stores"]),
			ratio(m["bp_mispredicts"], gx["bp_mispredicts"]),
			ratio(ga["l1i_read_misses"], gx["l1i_read_misses"]),
			ratio(ga["l1d_write_misses"], gx["l1d_write_misses"]))
	}
	fmt.Fprintln(w, "(R-numbers refer to the paper's remarks; M = MaFIN-x86, G = GeFIN-x86, A = GeFIN-ARM.")
	fmt.Fprintln(w, " At this input scale the L2 sees no write traffic, so the paper's R10/R11 L2")
	fmt.Fprintln(w, " ratios have no analog; see EXPERIMENTS.md.)")
}

// ---- Tables II–IV and the sampling table ---------------------------------------

// RenderSamplingTable reproduces the §IV.A statistical fault sampling
// numbers.
func RenderSamplingTable(w io.Writer) {
	fmt.Fprintln(w, "Statistical fault sampling (Leveugle et al., DATE 2009), p=0.5:")
	fmt.Fprintf(w, "  99%% confidence, 3%% margin  -> n = %d   (paper: 1843)\n",
		fault.SampleSize(0, 0.99, 0.03))
	fmt.Fprintf(w, "  99%% confidence, 5%% margin  -> n = %d    (paper: 663)\n",
		fault.SampleSize(0, 0.99, 0.05))
	fmt.Fprintf(w, "  2000 injections at 99%%     -> margin = %.2f%% (paper: 2.88%%)\n",
		100*fault.MarginFor(0, 2000, 0.99))
}

// RenderAdaptiveTable prints, next to the fixed-n sampling numbers, what
// the adaptive campaigns actually achieved: per cell, the runs simulated
// versus planned and the margin reached when the rule fired (or the cell
// ran to budget / the census completed). Cells without adaptive control
// are skipped; nothing is printed when no cell carried one.
func RenderAdaptiveTable(w io.Writer, figs []*FigureData) {
	header := false
	for _, fd := range figs {
		for _, c := range fd.Cells {
			a := c.Adaptive
			if a == nil {
				continue
			}
			if !header {
				header = true
				fmt.Fprintln(w, "Adaptive campaign control (achieved margins per cell):")
				fmt.Fprintf(w, "  %-10s %-6s %-24s %10s %10s %10s  %s\n",
					"benchmark", "tool", "structure", "simulated", "planned", "margin", "outcome")
			}
			outcome := "ran to budget"
			margin := fmt.Sprintf("%9.2f%%", 100*a.EffectiveMargin)
			switch {
			case a.Complete:
				outcome = "census complete"
				margin = "     exact"
			case a.StoppedEarly:
				outcome = fmt.Sprintf("stopped early at %.0f%% confidence", 100*a.Confidence)
			}
			fmt.Fprintf(w, "  %-10s %-6s %-24s %10d %10d %10s  %s\n",
				c.Benchmark, sims.ShortLabel(c.Tool), fd.Spec.Structure,
				a.SimulatedRuns, a.PlannedRuns, margin, outcome)
		}
	}
}

// RenderStructuresTable reproduces Table IV: the injectable structures
// of every tool configuration.
func RenderStructuresTable(w io.Writer) error {
	qsortW, err := workload.ByName("qsort")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table IV analog: injectable structures per tool")
	for _, tool := range sims.Tools() {
		factory, err := sims.Factory(tool, qsortW)
		if err != nil {
			return err
		}
		sim := factory()
		geoms := core.Geometries(sim)
		sort.Slice(geoms, func(i, j int) bool { return geoms[i].Name < geoms[j].Name })
		fmt.Fprintf(w, "  %s (%d structures):\n", sim.Name(), len(geoms))
		for _, g := range geoms {
			fmt.Fprintf(w, "    %-16s %6d entries x %4d bits = %8d bits\n",
				g.Name, g.Entries, g.BitsPerEntry, g.Entries*g.BitsPerEntry)
		}
	}
	return nil
}
