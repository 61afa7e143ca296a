package main

import (
	"fmt"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/sims"
)

// poolSeed draws the fault population of every workload. It is a
// constant, not --seed: at a few hundred simulated runs per repetition
// (all the time cap allows) the cost of an injection is so heavy-tailed
// — a pruned mask costs nothing, a run that never leaves its detail
// window costs a whole golden run, a timeout three — that two
// independently drawn campaigns differ by 10–25% in host time. Nor does
// --seed reorder the population: the first mask of an equivalence class
// is the one simulated, and the cell that is scheduled last decides how
// long one worker idles, so another order of the masks moves the pruned
// workloads by 10–15% and another order of the cells moves
// windowed-turbo by 8% and fleet-service by 20% (README, "What the seed
// varies"). --seed is handed to the program as CampaignConfig.Seed and
// selects nothing there, because the config carries its masks.
const poolSeed = 7

// shardSize is faultcampd's default -shard-size.
const shardSize = 50

// workload is one campaign the benchmark runs: a knob set, a cell
// matrix and a per-cell mask count. The names are final; later issues
// cite them.
type workload struct {
	name string
	why  string
	// knobs is the campaign config without cells, masks or Workers.
	knobs     core.CampaignConfig
	tools     []string
	benchmark string
	structs   []string
	perCell   int
	// sinks attaches what a durable production campaign attaches: run
	// journal, injection trace and the logs repository.
	sinks bool
	// fleet runs the campaign through svc/client → svc.Service →
	// dist.RunWorker instead of core.RunConfig.
	fleet bool
}

var workloads = []workload{
	{
		name: "detailed-diff",
		why: "every run boots and simulates cycle-accurately on all three tools, so the marss/gem5 cycle loops " +
			"(bitarray, cache, pipeline under them) do the work; scheduler, interp, dist and svc do almost none",
		knobs:     core.CampaignConfig{LiveOnly: true},
		tools:     []string{sims.MaFINX86, sims.GeFINX86, sims.GeFINARM},
		benchmark: "qsort",
		structs:   []string{"rf.int", "l1d.data"},
		perCell:   4,
	},
	{
		name: "pruned-ladder",
		why: "Leveugle-scale population, 99% settled at plan time and the rest restored from ladder rungs, " +
			"with journal, trace and logs attached: shows plan, checkpoint-restore, settle and sink costs",
		knobs:     core.CampaignConfig{Prune: true, UseCheckpoint: true, CheckpointLadder: 4},
		tools:     []string{sims.MaFINX86, sims.GeFINX86},
		benchmark: "sha",
		structs:   []string{"rf.int", "l1d.data", "l2.data", "lsq.data"},
		perCell:   300,
		sinks:     true,
	},
	{
		name: "windowed-turbo",
		why: "the production fast path: functional fast-forward, handoff capture/seed, short detail windows " +
			"and per-run orchestration; an interp/handoff/scheduler gain shows here and not on detailed-diff",
		knobs:     windowedKnobs,
		tools:     []string{sims.MaFINX86, sims.GeFINX86},
		benchmark: "qsort",
		structs:   []string{"rf.int", "l1d.data"},
		perCell:   100,
	},
	{
		name: "fleet-service",
		why: "the windowed-turbo campaign submitted over loopback HTTP to an embedded svc.Service with nproc " +
			"dist.RunWorkers: the only path through dist, svc, client, spool, journal-as-ledger and result index",
		knobs:     windowedKnobs,
		tools:     []string{sims.MaFINX86, sims.GeFINX86},
		benchmark: "qsort",
		structs:   []string{"rf.int", "l1d.data"},
		perCell:   shardSize,
		fleet:     true,
	},
}

var windowedKnobs = core.CampaignConfig{
	LiveOnly: true, Prune: true, UseCheckpoint: true, CheckpointLadder: 3,
	DetailWindow: true, WindowPre: 2000, WindowPost: 1000,
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) cells() []core.CampaignCell {
	var cells []core.CampaignCell
	for _, t := range w.tools {
		for _, s := range w.structs {
			cells = append(cells, core.CampaignCell{Tool: t, Benchmark: w.benchmark, Structure: s})
		}
	}
	return cells
}

// population materializes the workload's campaign: the product's own
// generator (BuildSpecs: golden geometry, fault.Generate, LiveOnly
// remap) draws perCell masks per cell from poolSeed. The result carries
// explicit masks, so the program under test sees only the generated
// config.
func (w workload) population(seed int64, cache *core.GoldenCache) (core.CampaignConfig, error) {
	pool := w.knobs
	pool.Campaigns = w.cells()
	pool.Injections = w.perCell
	pool.Seed = poolSeed
	specs, err := pool.BuildSpecs(cli.Resolve, cache)
	if err != nil {
		return core.CampaignConfig{}, err
	}
	cfg := w.knobs
	cfg.Seed = seed
	cfg.Campaigns = w.cells()
	for i := range cfg.Campaigns {
		cfg.Campaigns[i].Masks = specs[i].Masks
	}
	return cfg, cfg.Validate()
}

// warmUp returns the campaign cut down to the first quarter of every
// cell's masks — the warm-up campaign of a set-up. Golden runs, ladders,
// profiles and fast-forward rungs do not depend on the mask count, so
// running the quarter builds the same artifacts the full campaign needs.
func (w workload) warmUp(cfg core.CampaignConfig) core.CampaignConfig {
	n := (w.perCell + 3) / 4
	out := cfg
	out.Campaigns = append([]core.CampaignCell(nil), cfg.Campaigns...)
	for i := range out.Campaigns {
		if len(out.Campaigns[i].Masks) > n {
			out.Campaigns[i].Masks = out.Campaigns[i].Masks[:n]
		}
	}
	return out
}

func maskCount(cfg core.CampaignConfig) int {
	n := 0
	for i := range cfg.Campaigns {
		n += cfg.MaskCount(i)
	}
	return n
}
