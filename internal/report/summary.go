package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sims"
)

// LoadFigure rebuilds a figure's dataset from a logs repository instead
// of re-running the campaigns — the same separation the paper's parser
// exploits: classification is re-runnable offline.
func LoadFigure(logs *core.LogsRepo, spec FigureSpec, opt Options) (*FigureData, error) {
	fd := &FigureData{Spec: spec}
	for _, bench := range opt.benchmarks() {
		for _, tool := range opt.tools() {
			key := fault.CampaignKey(tool, bench, spec.Structure)
			res, err := logs.Load(key)
			if err != nil {
				return nil, fmt.Errorf("report: figure %d needs campaign %s: %w", spec.ID, key, err)
			}
			fd.Cells = append(fd.Cells, Cell{
				Tool: tool, Benchmark: bench,
				Breakdown: opt.Parser.ParseAll(res.Records),
				Golden:    res.Golden,
				Adaptive:  res.Adaptive,
			})
		}
	}
	return fd, nil
}

// RenderDifferentialSummary prints the paper's §IV.C headline
// comparison: for every structure, the average-vulnerability gap between
// the two x86 injectors versus the gap between the two ISAs on GeFIN.
// The paper's finding is that the same-ISA cross-simulator differences
// exceed the cross-ISA same-simulator differences.
func RenderDifferentialSummary(w io.Writer, figs []*FigureData) {
	fmt.Fprintln(w, "Differential summary (average vulnerability, percentage points)")
	fmt.Fprintf(w, "  %-38s %8s %8s %8s %12s %12s\n",
		"structure", "M-x86", "G-x86", "G-ARM", "|Mx86-Gx86|", "|Gx86-GARM|")
	var sumTools, sumISAs float64
	n := 0
	vulnOf := func(b core.Breakdown) float64 {
		if b.Weighted() {
			return b.WeightedVulnerability()
		}
		return b.Vulnerability()
	}
	for _, fd := range figs {
		m := vulnOf(fd.Average(sims.MaFINX86))
		gx := vulnOf(fd.Average(sims.GeFINX86))
		ga := vulnOf(fd.Average(sims.GeFINARM))
		dTools := math.Abs(m - gx)
		dISAs := math.Abs(gx - ga)
		sumTools += dTools
		sumISAs += dISAs
		n++
		fmt.Fprintf(w, "  Fig %d %-32s %8.2f %8.2f %8.2f %12.2f %12.2f\n",
			fd.Spec.ID, fd.Spec.Title, m, gx, ga, dTools, dISAs)
	}
	if n > 0 {
		fmt.Fprintf(w, "  %-38s %26s %12.2f %12.2f\n", "mean gap", "", sumTools/float64(n), sumISAs/float64(n))
		if sumTools > sumISAs {
			fmt.Fprintln(w, "  → same-ISA cross-simulator differences exceed cross-ISA differences,")
			fmt.Fprintln(w, "    the paper's central conclusion (§VI).")
		} else {
			fmt.Fprintln(w, "  → cross-ISA differences dominate on this sample (the paper's x86-pair")
			fmt.Fprintln(w, "    gap was larger; see EXPERIMENTS.md for the discussion).")
		}
	}
}

// WriteCSV emits the figure as a machine-readable CSV: one row per
// (benchmark, tool) plus the averages, with raw counts and percentages
// for every class.
func (fd *FigureData) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"figure", "structure", "benchmark", "tool", "injections"}
	for _, c := range core.Classes {
		header = append(header, string(c), string(c)+"_pct")
	}
	header = append(header, "vulnerability_pct")
	if err := cw.Write(header); err != nil {
		return err
	}
	row := func(bench, tool string, b core.Breakdown) []string {
		rec := []string{
			fmt.Sprint(fd.Spec.ID), fd.Spec.Structure, bench, sims.ShortLabel(tool),
			fmt.Sprint(b.Total),
		}
		for _, c := range core.Classes {
			rec = append(rec, fmt.Sprint(b.Counts[c]), fmt.Sprintf("%.4f", b.Pct(c)))
		}
		return append(rec, fmt.Sprintf("%.4f", b.Vulnerability()))
	}
	for _, bench := range fd.Benchmarks() {
		for _, tool := range fd.Tools() {
			if c, ok := fd.CellFor(bench, tool); ok {
				if err := cw.Write(row(bench, tool, c.Breakdown)); err != nil {
					return err
				}
			}
		}
	}
	for _, tool := range fd.Tools() {
		if err := cw.Write(row("AVERAGE", tool, fd.Average(tool))); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RenderDominantClasses prints, per figure and tool, the dominant
// non-masked class — the paper's Remark 4 (SDC dominates L1D) and
// Remark 8 (Assert dominates MaFIN's L1I, Crash dominates GeFIN's).
func RenderDominantClasses(w io.Writer, figs []*FigureData) {
	fmt.Fprintln(w, "Dominant non-masked class per structure and tool")
	for _, fd := range figs {
		fmt.Fprintf(w, "  Fig %d %-32s", fd.Spec.ID, fd.Spec.Title)
		for _, tool := range fd.Tools() {
			b := fd.Average(tool)
			// Weight mass equals the raw count on uniform campaigns and
			// the population share on census ones.
			best := core.ClassSDC
			bestN := -1.0
			for _, c := range core.Classes {
				if c == core.ClassMasked {
					continue
				}
				if b.Weights[c] > bestN {
					best, bestN = c, b.Weights[c]
				}
			}
			fmt.Fprintf(w, "  %s:%-8s", sims.ShortLabel(tool), string(best))
		}
		fmt.Fprintln(w)
	}
}
