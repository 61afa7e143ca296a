package fault

import (
	"fmt"

	"repro/internal/bitarray"
)

// This file holds the exhaustive census, the profile-driven mask
// generator of the adaptive campaign plane: it collapses the full
// {entry, bit, cycle} fault population into one representative mask per
// liveness equivalence class. It lives apart from Generate, whose random
// stream must stay byte-identical for existing campaigns.

// maxCensusClasses caps the equivalence classes one census may hold. The
// census is a design for small structures; a register file over a real
// golden run has hundreds of millions of classes, and materializing them
// would exhaust memory long before the plan could simulate them. Past
// the cap the census is refused by name, and the cell is sampled instead.
const maxCensusClasses = 1 << 20

// liveInterval is one liveness equivalence class of a single (entry, bit)
// fault site: every injection cycle in [lo, hi] meets the same next
// covering access, so every fault in the interval provably shares a
// verdict trajectory.
type liveInterval struct {
	entry, bit int
	lo, hi     uint64 // inclusive cycle bounds
}

// mass returns the interval's cycle count — its share of the uniform
// fault population.
func (iv liveInterval) mass() uint64 { return iv.hi - iv.lo + 1 }

// walkIntervals walks the profile and hands visit the liveness intervals
// of every (entry, bit) site over injection cycles [1, MaxCycle], in
// deterministic entry-major, bit-minor, cycle-ascending order, until
// visit returns false. The interval masses of one site sum to MaxCycle,
// so the total mass is exactly the uniform population
// Entries×BitsPerEntry×MaxCycle. Nothing here keeps the intervals.
func walkIntervals(spec GeneratorSpec, profile *bitarray.Profile, visit func(liveInterval) bool) error {
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
				if ok && ev.Cycle < hi {
					hi = ev.Cycle
				}
				if !visit(liveInterval{entry: e, bit: b, lo: lo, hi: hi}) {
					return nil
				}
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
// pure function of geometry and profile. A census of more than
// maxCensusClasses classes is an error, found by a counting walk before
// any mask is allocated.
func EnumerateExhaustive(spec GeneratorSpec, profile *bitarray.Profile) ([]Mask, error) {
	if spec.Model != "" && spec.Model != ModelTransient {
		return nil, fmt.Errorf("fault: exhaustive enumeration covers transient faults only, not %q", spec.Model)
	}
	if spec.SitesPerMask > 1 {
		return nil, fmt.Errorf("fault: exhaustive enumeration covers single-site masks only")
	}
	n, entry := 0, 0
	err := walkIntervals(spec, profile, func(iv liveInterval) bool {
		n, entry = n+1, iv.entry
		return n <= maxCensusClasses
	})
	if err != nil {
		return nil, err
	}
	if n > maxCensusClasses {
		return nil, fmt.Errorf("fault: census of %q is too large: %d equivalence classes by entry %d of %d, over the cap of %d; sample the structure instead of enumerating it",
			spec.Structure, n, entry, spec.Entries, maxCensusClasses)
	}
	masks := make([]Mask, 0, n)
	err = walkIntervals(spec, profile, func(iv liveInterval) bool {
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
		return true
	})
	if err != nil {
		return nil, err
	}
	return masks, nil
}
