package core

import (
	"fmt"

	"repro/internal/prune"
)

// PlannedCell is what the plan decided for one cell, with the artifacts
// it decided from: the part of a plan that must not depend on how many
// builds ran at once.
type PlannedCell struct {
	Golden          GoldenInfo
	RungCycles      []uint64
	Profiles        prune.Profiles
	Prune           *prune.Plan
	Disp            []disposition
	Verify, WVerify []int
}

// PlanConfig plans cfg the way RunConfig does — specs built, matrix
// planned — and stops before anything is injected. The profiles are read
// from the cache without a lookup, so its counters are the plan's own.
func PlanConfig(cfg CampaignConfig, resolve Resolver, cache *GoldenCache) ([]PlannedCell, error) {
	specs, err := cfg.BuildSpecs(resolve, cache)
	if err != nil {
		return nil, err
	}
	p, err := planMatrix(cfg, specs, Attach{}, cache, nil)
	if err != nil {
		return nil, err
	}
	structures := maskStructures(specs)
	out := make([]PlannedCell, len(specs))
	for i, c := range p.cells {
		cache.mu.Lock()
		e := cache.rows[goldenKey{specs[i].Tool, specs[i].Benchmark}]
		cache.mu.Unlock()
		e.profMu.Lock()
		profiles := e.profiles[fmt.Sprintf("%q", structures)]
		e.profMu.Unlock()
		cycles := make([]uint64, len(c.rungs))
		for r, rung := range c.rungs {
			cycles[r] = rung.Cycle
		}
		out[i] = PlannedCell{
			Golden: c.golden, RungCycles: cycles, Profiles: profiles,
			Prune: c.prune, Disp: c.disp, Verify: c.verify, WVerify: c.wverify,
		}
	}
	return out, nil
}

// BootWindowEntries installs an empty functional fast-forward ladder
// (quantum 0) on the {tool, bench} row of cache. machineAt answers nil
// for it, so every window entry on the row fast-forwards from boot: the
// reference the ladder must reproduce byte for byte. Call it before the
// row's first campaign plans.
func BootWindowEntries(cache *GoldenCache, tool, bench string) {
	e := cache.entry(tool, bench)
	e.ffMu.Lock()
	e.ff = &ffLadder{}
	e.ffMu.Unlock()
}
