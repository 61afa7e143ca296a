// ISA compare: the paper's cross-ISA study in miniature — the same
// algorithm (sha) compiled for the x86-flavoured and the ARM-flavoured
// ISA, both executed on the Gem5-like simulator, with identical fault
// populations injected into the integer register file and the L1I
// instruction arrays. The instruction streams genuinely differ
// (variable- vs fixed-length encoding, two- vs three-operand ALU,
// flags vs fused compare-and-branch), so the reliability reports differ
// too — while the program outputs agree bit for bit.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sims"
	"repro/internal/workload"
)

func main() {
	n := flag.Int("n", 150, "injections per campaign")
	bench := flag.String("bench", "sha", "benchmark")
	flag.Parse()

	// First show that the two ISAs really execute different code.
	w, err := workload.ByName(*bench)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := report.GoldenStats(report.Options{
		Benchmarks: []string{*bench},
		Tools:      []string{sims.GeFINX86, sims.GeFINARM},
	})
	if err != nil {
		log.Fatal(err)
	}
	x := stats[*bench][sims.GeFINX86]
	a := stats[*bench][sims.GeFINARM]
	fmt.Printf("%s on GeFIN, fault-free:\n", w.Name)
	fmt.Printf("  %-22s %12s %12s\n", "", "x86", "arm")
	for _, k := range []string{"committed_instrs", "committed_uops", "committed_loads",
		"committed_stores", "cycles", "bp_mispredicts", "l1i_read_misses"} {
		fmt.Printf("  %-22s %12d %12d\n", k, x[k], a[k])
	}

	opt := report.Options{
		Campaign:   core.CampaignConfig{Injections: *n, Seed: 99},
		Benchmarks: []string{*bench},
		Tools:      []string{sims.GeFINX86, sims.GeFINARM},
	}
	for _, figID := range []int{2, 4} { // register file and L1I
		spec, _ := report.FigureByID(figID)
		fd, err := report.RunFigure(spec, opt, os.Stderr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		fd.Render(os.Stdout)
		vx := fd.Average(sims.GeFINX86).Vulnerability()
		va := fd.Average(sims.GeFINARM).Vulnerability()
		fmt.Printf("→ %s vulnerability: x86 %.2f%% vs arm %.2f%% (Δ %.2f points)\n",
			spec.Structure, vx, va, vx-va)
	}
}
