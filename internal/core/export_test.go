package core

import (
	"sync"

	"repro/internal/divergence"
	"repro/internal/fault"
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
	out := make([]PlannedCell, len(specs))
	for i, c := range p.cells {
		cache.mu.Lock()
		e := cache.rows[goldenKey{specs[i].Tool, specs[i].Benchmark}]
		cache.mu.Unlock()
		profiles := make(prune.Profiles)
		e.mu.Lock()
		for _, s := range cfg.want().structures {
			profiles[s] = e.profiles[s]
		}
		e.mu.Unlock()
		cycles := make([]uint64, len(c.rungs))
		for r, rung := range c.rungs {
			cycles[r] = rung.Cycle
		}
		out[i] = PlannedCell{
			Golden: c.golden, RungCycles: cycles, Profiles: profiles,
			Prune: c.prune, Disp: c.disp,
		}
		out[i].Verify, out[i].WVerify = c.samples()
	}
	return out, nil
}

// samples splits the cell's guard checks back into the masks each guard
// drew: prune-verify's and window-verify's.
func (c cellPlan) samples() (verify, wverify []int) {
	for _, k := range c.checks {
		if k.prune {
			verify = append(verify, k.mask)
		} else {
			wverify = append(wverify, k.mask)
		}
	}
	return verify, wverify
}

// Derive asks cache, in one lookup, for the row's k-rung ladder, the
// liveness profiles of structures and, with sig, the commit signature.
func Derive(cache *GoldenCache, tool, bench string, f Factory, k int, structures []string, sig bool) ([]LadderRung, prune.Profiles, *divergence.Signature, error) {
	d, err := cache.derived(nil, tool, bench, f, derivedWant{k: k, structures: structures, sig: sig})
	return d.rungs, d.profiles, d.sig, err
}

// Replays reports how many fault-free replays the cache ran to build
// ladders, profiles and signatures (golden runs are Runs).
func Replays(c *GoldenCache) int { return int(c.replays.Load()) }

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

// CountForkAdvances runs fn and returns the cycles the unwindowed runs
// it starts advanced fault-free to their fork cycles, per "tool/bench"
// row.
func CountForkAdvances(fn func()) map[string]uint64 {
	var mu sync.Mutex
	n := make(map[string]uint64)
	forkAdvanced = func(g GoldenInfo, cycles uint64) {
		mu.Lock()
		n[g.Tool+"/"+g.Benchmark] += cycles
		mu.Unlock()
	}
	defer func() { forkAdvanced = nil }()
	fn()
	return n
}

// RunFromRung runs mask m the way a run with no fork point does: from
// the highest of rungs below its first fault (or boot), with a fresh
// commit probe against sig attached there. It returns the probe's
// verdict beside the record — the divergence reference of a forked run.
func RunFromRung(f Factory, rungs []LadderRung, m fault.Mask, golden GoldenInfo, sig *divergence.Signature) (LogRecord, bool, uint64, uint64, error) {
	stats := &runStats{div: divergence.NewProbe(sig)}
	rec, err := runInjection(f, rungs, m, golden, 0, true, nil, nil, nil, stats)
	diverged, cycle, index := stats.div.Diverged()
	return rec, diverged, cycle, index, err
}
