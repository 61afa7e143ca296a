package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bitarray"
)

// This file holds the two profile-driven mask generators of the adaptive
// campaign plane: the exhaustive enumerator, which collapses the full
// {entry, bit, cycle} fault population into one representative mask per
// liveness equivalence class, and the importance sampler, which draws
// masks preferentially from the live portion of the population while
// carrying the Horvitz–Thompson weights that keep the class-proportion
// estimators unbiased. Both live in their own functions — Generate's
// random stream must stay byte-identical for existing campaigns.

// DefaultImportanceBoost is how much more likely a live fault site is to
// be drawn than a dead one under importance sampling, per unit of cycle
// mass. The exact value only trades variance between strata — the
// Horvitz–Thompson weights keep the estimate unbiased at any boost.
const DefaultImportanceBoost = 4.0

// liveInterval is one liveness equivalence class of a single (entry, bit)
// fault site: every injection cycle in [lo, hi] meets the same next
// covering access, so every fault in the interval provably shares a
// verdict trajectory.
type liveInterval struct {
	entry, bit int
	lo, hi     uint64 // inclusive cycle bounds
	live       bool   // next covering access is a read
}

// mass returns the interval's cycle count — its share of the uniform
// fault population.
func (iv liveInterval) mass() uint64 { return iv.hi - iv.lo + 1 }

// walkIntervals walks the profile and hands visit the liveness intervals
// of every (entry, bit) site over injection cycles [1, MaxCycle], in
// deterministic entry-major, bit-minor, cycle-ascending order. The
// interval masses of one site sum to MaxCycle, so the total mass is
// exactly the uniform population Entries×BitsPerEntry×MaxCycle. A real
// cell has tens of millions of intervals, so nothing here keeps them.
func walkIntervals(spec GeneratorSpec, profile *bitarray.Profile, visit func(liveInterval)) error {
	if spec.Entries <= 0 || spec.BitsPerEntry <= 0 {
		return fmt.Errorf("fault: generator spec for %q has bad geometry %d×%d",
			spec.Structure, spec.Entries, spec.BitsPerEntry)
	}
	if spec.MaxCycle == 0 {
		return fmt.Errorf("fault: generator spec for %q has zero max cycle", spec.Structure)
	}
	if profile == nil {
		return fmt.Errorf("fault: no liveness profile for %q", spec.Structure)
	}
	for e := 0; e < spec.Entries; e++ {
		for b := 0; b < spec.BitsPerEntry; b++ {
			lo := uint64(1)
			for lo <= spec.MaxCycle {
				_, ev, ok := profile.NextCovering(e, b, lo)
				hi := spec.MaxCycle
				live := false
				if ok {
					if ev.Cycle < hi {
						hi = ev.Cycle
					}
					live = ev.Kind == bitarray.AccessRead
				}
				visit(liveInterval{entry: e, bit: b, lo: lo, hi: hi, live: live})
				lo = hi + 1
			}
		}
	}
	return nil
}

// EnumerateExhaustive produces the equivalence-class-collapsed census of
// the whole single-bit transient fault population of one structure: one
// representative mask per liveness interval, injected at the interval's
// first cycle and weighted by the interval's cycle mass. Simulating the
// representatives (the liveness pruner settles the dead ones without
// simulation) decides every fault in the population, so a campaign over
// these masks is complete — a zero-margin census, not a sample. The
// weights sum to Entries×BitsPerEntry×MaxCycle, the uniform population
// size. Count and Seed of the spec are ignored; the enumeration is a
// pure function of geometry and profile.
func EnumerateExhaustive(spec GeneratorSpec, profile *bitarray.Profile) ([]Mask, error) {
	if spec.Model != "" && spec.Model != ModelTransient {
		return nil, fmt.Errorf("fault: exhaustive enumeration covers transient faults only, not %q", spec.Model)
	}
	if spec.SitesPerMask > 1 {
		return nil, fmt.Errorf("fault: exhaustive enumeration covers single-site masks only")
	}
	var masks []Mask
	err := walkIntervals(spec, profile, func(iv liveInterval) {
		masks = append(masks, Mask{
			ID: len(masks),
			Sites: []Site{{
				Structure: spec.Structure,
				Entry:     iv.entry,
				Bit:       iv.bit,
				Model:     ModelTransient,
				Cycle:     iv.lo,
			}},
			Weight: float64(iv.mass()),
		})
	})
	if err != nil {
		return nil, err
	}
	return masks, nil
}

// GenerateImportance draws Count single-bit transient masks with the
// live portion of the fault population oversampled by boost (per unit of
// cycle mass) — golden-run liveness as an importance distribution. Each
// mask carries the Horvitz–Thompson weight w = P_uniform / P_drawn of
// its stratum, so the self-normalized estimate Σ_class w / Σ w of any
// class proportion is consistent for the uniform-sampling estimand: the
// oversampling buys variance reduction on the live (non-masked-prone)
// classes without biasing the Masked estimate. Deterministic for a given
// spec and profile; Generate's random stream is untouched.
func GenerateImportance(spec GeneratorSpec, profile *bitarray.Profile, boost float64) ([]Mask, error) {
	if spec.Model != "" && spec.Model != ModelTransient {
		return nil, fmt.Errorf("fault: importance sampling covers transient faults only, not %q", spec.Model)
	}
	if spec.SitesPerMask > 1 {
		return nil, fmt.Errorf("fault: importance sampling covers single-site masks only")
	}
	if spec.Count <= 0 {
		return nil, fmt.Errorf("fault: generator spec for %q has non-positive count %d", spec.Structure, spec.Count)
	}
	if boost <= 0 {
		boost = DefaultImportanceBoost
	}
	// The two strata — live and dead intervals — are known by their
	// masses alone until a draw lands: one walk sums the masses, the
	// draws pick a stratum and a position in it, and a second walk turns
	// each position into the cycle of the interval holding it. The
	// intervals themselves are never held (a real cell has tens of
	// millions).
	var mass [2]uint64 // dead, live
	stratum := func(iv liveInterval) int {
		if iv.live {
			return 1
		}
		return 0
	}
	if err := walkIntervals(spec, profile, func(iv liveInterval) { mass[stratum(iv)] += iv.mass() }); err != nil {
		return nil, err
	}
	deadMass, liveMass := mass[0], mass[1]
	total := liveMass + deadMass
	// The live-stratum draw probability: boosted share of the total mass.
	// Degenerate strata collapse to plain uniform sampling of the other.
	beta := 0.0
	if liveMass > 0 {
		if deadMass == 0 {
			beta = 1
		} else {
			beta = boost * float64(liveMass) / (boost*float64(liveMass) + float64(deadMass))
		}
	}
	type draw struct {
		mask int
		off  uint64 // position in the stratum's mass, in walk order
	}
	var draws [2][]draw
	rng := rand.New(rand.NewSource(spec.Seed))
	masks := make([]Mask, spec.Count)
	for i := range masks {
		masks[i].ID = i
		if rng.Float64() < beta {
			draws[1] = append(draws[1], draw{i, uint64(rng.Int63n(int64(liveMass)))}) //nolint:gosec // masses fit int64
			masks[i].Weight = float64(liveMass) / (beta * float64(total))
		} else {
			draws[0] = append(draws[0], draw{i, uint64(rng.Int63n(int64(deadMass)))}) //nolint:gosec // masses fit int64
			masks[i].Weight = float64(deadMass) / ((1 - beta) * float64(total))
		}
	}
	for _, d := range draws {
		sort.Slice(d, func(a, b int) bool { return d[a].off < d[b].off })
	}
	var next [2]int
	var before [2]uint64 // stratum mass of the intervals walked so far
	err := walkIntervals(spec, profile, func(iv liveInterval) {
		s := stratum(iv)
		end := before[s] + iv.mass()
		for d := draws[s]; next[s] < len(d) && d[next[s]].off < end; next[s]++ {
			masks[d[next[s]].mask].Sites = []Site{{
				Structure: spec.Structure,
				Entry:     iv.entry,
				Bit:       iv.bit,
				Model:     ModelTransient,
				Cycle:     iv.lo + (d[next[s]].off - before[s]),
			}}
		}
		before[s] = end
	})
	if err != nil {
		return nil, err
	}
	return masks, nil
}
