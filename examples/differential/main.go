// Differential: the paper's headline experiment in miniature — the same
// L1D data-array fault population injected through both x86 injectors
// (MaFIN on the MARSS-like simulator, GeFIN on the Gem5-like one),
// exposing the Remark 3 contrast: MARSS's dual-copy caches, hypervisor
// syscalls and aggressive load issue mask more L1D faults than Gem5's
// write-back hierarchy.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sims"
)

func main() {
	n := flag.Int("n", 150, "injections per campaign")
	bench := flag.String("bench", "qsort", "benchmark")
	flag.Parse()

	opt := report.Options{
		Campaign:   core.CampaignConfig{Injections: *n, Seed: 42},
		Benchmarks: []string{*bench},
		Tools:      []string{sims.MaFINX86, sims.GeFINX86},
	}
	spec, _ := report.FigureByID(3) // L1D data arrays
	fd, err := report.RunFigure(spec, opt, os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	fd.Render(os.Stdout)

	m := fd.Average(sims.MaFINX86)
	g := fd.Average(sims.GeFINX86)
	fmt.Printf("\nL1D vulnerability on %s: MaFIN %.2f%% vs GeFIN %.2f%%\n",
		*bench, m.Vulnerability(), g.Vulnerability())
	switch {
	case m.Vulnerability() < g.Vulnerability():
		fmt.Println("→ the MARSS-like tool reports the less vulnerable L1D (the paper's Remark 3 direction)")
	case m.Vulnerability() == g.Vulnerability():
		fmt.Println("→ the two tools agree on this sample; increase -n for a sharper contrast")
	default:
		fmt.Println("→ reversed on this benchmark/sample (the paper notes qsort and smooth reverse too)")
	}
}
