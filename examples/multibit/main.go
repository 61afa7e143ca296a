// Multibit: the extension studies the paper supports beyond its
// single-bit transient evaluation (§III.A) — permanent and intermittent
// faults, double-bit faults within one structure, and simultaneous
// faults in two different structures, all on the same benchmark and
// tool so the fault models can be compared directly.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sims"
	"repro/internal/workload"
)

func main() {
	n := flag.Int("n", 100, "injections per campaign")
	bench := flag.String("bench", "sha", "benchmark")
	tool := flag.String("tool", "gefin-x86", "tool configuration")
	flag.Parse()

	w, err := workload.ByName(*bench)
	if err != nil {
		log.Fatal(err)
	}
	factory, err := sims.Factory(*tool, w)
	if err != nil {
		log.Fatal(err)
	}
	golden, err := core.Golden(factory)
	if err != nil {
		log.Fatal(err)
	}
	sim := factory()
	geom := func(name string) (int, int) {
		arr := sim.Structures()[name]
		return arr.Entries(), arr.BitsPerEntry()
	}
	l1dE, l1dB := geom("l1d.data")
	rfE, rfB := geom("rf.int")

	run := func(label string, masks []fault.Mask) {
		// One cell carrying its masks explicitly; the resolver hands back
		// the factory built above.
		res, err := core.RunConfig(core.CampaignConfig{
			Campaigns: []core.CampaignCell{{Tool: *tool, Benchmark: *bench, Structure: label, Masks: masks}},
		}, func(string, string) (core.Factory, error) { return factory, nil }, core.Attach{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %s\n", label, core.Parser{}.ParseAll(res[0].Records))
	}

	gen := func(structure string, entries, bits int, model fault.Model, sites int, adjacent bool, seed int64) []fault.Mask {
		masks, err := fault.Generate(fault.GeneratorSpec{
			Structure: structure, Entries: entries, BitsPerEntry: bits,
			MaxCycle: golden.Cycles, Model: model, Count: *n,
			Seed: seed, SitesPerMask: sites, Adjacent: adjacent,
			Duration: golden.Cycles / 10,
		})
		if err != nil {
			log.Fatal(err)
		}
		return masks
	}

	fmt.Printf("fault-model study: %s on %s, %d injections each\n\n", *bench, sim.Name(), *n)
	run("L1D transient single-bit", gen("l1d.data", l1dE, l1dB, fault.ModelTransient, 1, false, 1))
	run("L1D transient double-bit", gen("l1d.data", l1dE, l1dB, fault.ModelTransient, 2, false, 2))
	run("L1D transient burst (4 adjacent)", gen("l1d.data", l1dE, l1dB, fault.ModelTransient, 4, true, 7))
	run("L1D intermittent", gen("l1d.data", l1dE, l1dB, fault.ModelIntermittent, 1, false, 3))
	run("L1D permanent", gen("l1d.data", l1dE, l1dB, fault.ModelPermanent, 1, false, 4))

	// Simultaneous faults in two structures: pairwise merge of one
	// L1D population and one register-file population.
	a := gen("l1d.data", l1dE, l1dB, fault.ModelTransient, 1, false, 5)
	b := gen("rf.int", rfE, rfB, fault.ModelTransient, 1, false, 6)
	merged, err := fault.MultiStructure(a, b)
	if err != nil {
		log.Fatal(err)
	}
	run("L1D + rf.int simultaneous", merged)
}
