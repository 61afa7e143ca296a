package sims

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workload"
)

// BenchmarkSimulatorThroughput measures host-side simulation speed
// (simulated cycles per host second) and heap traffic of one golden run,
// for each tool on the two programs BENCHMARK.json's workloads simulate
// — the number that sizes real injection campaigns. It is also the one
// way to profile a core:
//
//	go test ./internal/sims -run '^$' -bench SimulatorThroughput/mafin-x86/qsort -cpuprofile cpu.out
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, tool := range Tools() {
		for _, bench := range []string{"qsort", "sha"} {
			w, err := workload.ByName(bench)
			if err != nil {
				b.Fatal(err)
			}
			factory, err := Factory(tool, w)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(tool+"/"+bench, func(b *testing.B) {
				b.ReportAllocs()
				var cycles uint64
				for i := 0; i < b.N; i++ {
					sim := factory()
					res := sim.Run(1 << 62)
					if res.Status != core.RunCompleted {
						b.Fatalf("%v", res.Status)
					}
					cycles += res.Cycles
				}
				b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
			})
		}
	}
}

// BenchmarkInjectionRun measures one full injection run (boot, arm,
// simulate, classify) — the unit cost of a campaign.
func BenchmarkInjectionRun(b *testing.B) {
	w, err := workload.ByName("qsort")
	if err != nil {
		b.Fatal(err)
	}
	factory, err := Factory(GeFINX86, w)
	if err != nil {
		b.Fatal(err)
	}
	golden, err := core.Golden(factory)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		live, _ := liveMask(i, golden.Cycles)
		if _, err := core.RunOne(factory, live, golden, 3, true); err != nil {
			b.Fatal(err)
		}
	}
}

// liveMask derives a deterministic single-site mask for the benchmark.
func liveMask(i int, cycles uint64) (fault.Mask, bool) {
	return fault.Mask{ID: i, Sites: []fault.Site{{
		Structure: "rf.int",
		Entry:     (i * 13) % 256,
		Bit:       (i * 29) % 64,
		Model:     fault.ModelTransient,
		Cycle:     uint64(i%10+1) * cycles / 11,
	}}}, true
}
