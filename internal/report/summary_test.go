package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sims"
)

func TestLoadFigureRoundTrip(t *testing.T) {
	repo, err := core.NewLogsRepo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Campaign: core.CampaignConfig{Injections: 8, Seed: 3, Workers: 2}, Benchmarks: []string{"qsort"}, Logs: repo}
	spec := Figures[0] // Fig 2: rf.int
	ran, err := RunFigure(spec, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFigure(repo, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Cells) != len(ran.Cells) {
		t.Fatalf("cells %d vs %d", len(loaded.Cells), len(ran.Cells))
	}
	for i := range ran.Cells {
		if ran.Cells[i].Breakdown.Counts[core.ClassMasked] != loaded.Cells[i].Breakdown.Counts[core.ClassMasked] {
			t.Fatalf("cell %d differs after reload", i)
		}
	}
	// Reclassification without re-running: coarse grouping.
	opt.Parser = core.Parser{CoarseMaskedOnly: true}
	coarse, err := LoadFigure(repo, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range coarse.Cells {
		for cls := range c.Breakdown.Counts {
			if cls != core.ClassMasked && cls != core.NonMasked {
				t.Fatalf("coarse classification leaked class %v", cls)
			}
		}
	}
	// Missing campaign surfaces as an error.
	if _, err := LoadFigure(repo, Figures[1], opt); err == nil {
		t.Fatal("missing campaign accepted")
	}
}

// Logs written before figure campaigns stamped the tool id carry the
// simulator's display name in their header; the file name is the key,
// so they load as before (results/logsrepo, figures -from-logs).
func TestLoadFigureReadsDisplayNameHeaders(t *testing.T) {
	repo, err := core.NewLogsRepo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old := &core.CampaignResult{
		Golden:  core.GoldenInfo{Tool: "GeFIN-x86", Benchmark: "qsort", Structure: "rf.int", Cycles: 100},
		Records: []core.LogRecord{{MaskID: 0, Status: core.RunCompleted.String(), OutputMatch: true}, {MaskID: 1, Status: core.RunCycleLimit.String()}},
	}
	if err := repo.Store(fault.CampaignKey(sims.GeFINX86, "qsort", "rf.int"), old); err != nil {
		t.Fatal(err)
	}
	fd, err := LoadFigure(repo, Figures[0], Options{Benchmarks: []string{"qsort"}, Tools: []string{sims.GeFINX86}})
	if err != nil {
		t.Fatal(err)
	}
	c, ok := fd.CellFor("qsort", sims.GeFINX86)
	if !ok || c.Breakdown.Total != 2 || c.Breakdown.Counts[core.ClassMasked] != 1 || c.Breakdown.Counts[core.ClassTimeout] != 1 {
		t.Fatalf("cell loaded from a display-name header: %+v (found %v)", c, ok)
	}
	if c.Golden.Tool != "GeFIN-x86" {
		t.Fatalf("header tool rewritten to %q", c.Golden.Tool)
	}
}

func TestRenderDifferentialSummary(t *testing.T) {
	mk := func(fig int, m, gx, ga int) *FigureData {
		spec, _ := FigureByID(fig)
		fd := &FigureData{Spec: spec}
		add := func(tool string, nonMasked int) {
			b := core.Breakdown{Total: 100, Counts: map[core.Class]int{
				core.ClassMasked: 100 - nonMasked, core.ClassSDC: nonMasked}}
			fd.Cells = append(fd.Cells, Cell{Tool: tool, Benchmark: "qsort", Breakdown: b})
		}
		add(sims.MaFINX86, m)
		add(sims.GeFINX86, gx)
		add(sims.GeFINARM, ga)
		return fd
	}
	var buf bytes.Buffer
	RenderDifferentialSummary(&buf, []*FigureData{
		mk(3, 15, 22, 23), // L1D: tools differ by 7, ISAs by 1
		mk(5, 6, 7, 7),
	})
	out := buf.String()
	if !strings.Contains(out, "7.00") || !strings.Contains(out, "1.00") {
		t.Fatalf("summary gaps missing:\n%s", out)
	}
	if !strings.Contains(out, "central conclusion") {
		t.Fatalf("verdict missing:\n%s", out)
	}
	buf.Reset()
	RenderDominantClasses(&buf, []*FigureData{mk(3, 15, 22, 23)})
	if !strings.Contains(buf.String(), "SDC") {
		t.Fatalf("dominant classes:\n%s", buf.String())
	}
}

func TestWriteCSV(t *testing.T) {
	spec, _ := FigureByID(2)
	fd := &FigureData{Spec: spec}
	fd.Cells = append(fd.Cells, Cell{Tool: sims.MaFINX86, Benchmark: "qsort",
		Breakdown: core.Breakdown{Total: 10, Counts: map[core.Class]int{
			core.ClassMasked: 9, core.ClassSDC: 1}}})
	var buf bytes.Buffer
	if err := fd.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"figure,structure,benchmark", "2,rf.int,qsort,M-x86,10", "10.0000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("csv missing %q:\n%s", want, out)
		}
	}
}
