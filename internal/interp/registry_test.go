package interp_test

import (
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/sims"
)

// A process links a registered benchmark once per target: two resolves
// of one cell boot machines on the same image, and however many
// campaigns the process serves, the predecode registry gains at most one
// table per {benchmark, target}, the first time that image runs.
func TestLinkOncePerBenchmarkAndTarget(t *testing.T) {
	image := func(tool string) any {
		t.Helper()
		f, err := cli.Resolve(tool, "qsort")
		if err != nil {
			t.Fatal(err)
		}
		return f().(core.Windower).Image()
	}
	if a, b := image(sims.GeFINX86), image(sims.GeFINX86); a != b {
		t.Fatal("two resolves of one cell boot machines on two images")
	}
	if image(sims.MaFINX86) != image(sims.GeFINX86) {
		t.Fatal("the two x86 tools boot qsort on two images")
	}

	cfg := core.CampaignConfig{Injections: 3, Seed: 5, Workers: 2, DetailWindow: true, WindowPre: 2000, WindowPost: 1000}
	for _, tool := range sims.Tools() {
		cfg.Campaigns = append(cfg.Campaigns, core.CampaignCell{Tool: tool, Benchmark: "qsort", Structure: "rf.int"})
	}
	before := interp.RegisteredImages()
	hits, _ := interp.DecodeCacheStats()
	var first int
	for n := 0; n < 4; n++ {
		// A fresh golden cache per campaign, as a worker that keeps none.
		if _, err := core.RunConfig(cfg, cli.Resolve, core.Attach{Golden: core.NewGoldenCache()}); err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			first = interp.RegisteredImages()
		}
	}
	last := interp.RegisteredImages()
	t.Logf("predecode registry: %d tables before, %d after one campaign, %d after four", before, first, last)
	if after, _ := interp.DecodeCacheStats(); after == hits {
		t.Fatal("the windowed campaigns never ran the functional tier")
	}
	if first-before > 2 || last != first {
		t.Fatalf("predecode registry: %d tables before, %d after the first campaign, %d after four; want at most 2 added (qsort × two ISAs), then none",
			before, first, last)
	}
}
