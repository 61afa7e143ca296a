// Sensitivity: the paper notes (footnote 4) that the injectors support
// studies "for different sizes and organizations of the hardware
// structures". This example sweeps the L1D capacity of the Gem5-like
// machine and measures how the cache's vulnerability scales: smaller
// caches hold a larger live fraction, so a random fault is more likely
// to hit program data — structure size is a first-order reliability
// knob, which is exactly why early design-stage injection matters.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gem5"
	"repro/internal/workload"
)

func main() {
	n := flag.Int("n", 120, "injections per cache size")
	bench := flag.String("bench", "qsort", "benchmark")
	flag.Parse()

	w, err := workload.ByName(*bench)
	if err != nil {
		log.Fatal(err)
	}
	img, err := w.Image(asm.TargetCISC)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("L1D size sweep on GeFIN-x86 / %s (%d transient injections each)\n\n", *bench, *n)
	fmt.Printf("%8s %10s %10s %10s %8s\n", "L1D", "golden cyc", "masked", "SDC", "vuln")
	for _, kb := range []int{8, 16, 32, 64} {
		cfg := gem5.DefaultConfig(gem5.ISAX86)
		cfg.L1D.Size = kb << 10
		factory := func() core.Simulator { return gem5.New(cfg, img) }

		golden, err := core.Golden(factory)
		if err != nil {
			log.Fatal(err)
		}
		sim := factory()
		arr := sim.Structures()["l1d.data"]
		masks, err := fault.Generate(fault.GeneratorSpec{
			Structure: "l1d.data", Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry(),
			MaxCycle: golden.Cycles, Model: fault.ModelTransient, Count: *n, Seed: 7,
		})
		if err != nil {
			log.Fatal(err)
		}
		// One cell carrying its masks explicitly; the resolver hands back
		// this cache size's factory.
		res, err := core.RunConfig(core.CampaignConfig{
			Campaigns: []core.CampaignCell{{Tool: "gefin-x86", Benchmark: *bench, Structure: "l1d.data", Masks: masks}},
		}, func(string, string) (core.Factory, error) { return factory, nil }, core.Attach{})
		if err != nil {
			log.Fatal(err)
		}
		b := core.Parser{}.ParseAll(res[0].Records)
		fmt.Printf("%6dKB %10d %9.2f%% %9.2f%% %7.2f%%\n",
			kb, golden.Cycles, b.Pct(core.ClassMasked), b.Pct(core.ClassSDC), b.Vulnerability())
	}
	fmt.Println("\n→ halving the cache roughly doubles the live fraction a random fault can hit;")
	fmt.Println("  capacity vs. vulnerability is the protection trade-off the paper motivates.")
}
