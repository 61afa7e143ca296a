// Package fault defines the fault models of the differential injection
// framework (Table III of the paper), the fault masks consumed by
// injection campaigns, the fault mask generator, and the statistical
// fault sampling of Leveugle et al. (DATE 2009) used to size campaigns.
package fault

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bitarray"
)

// Model selects a fault model. It mirrors bitarray.FaultKind but is the
// serialized, user-facing form used in mask repositories.
type Model string

const (
	// ModelTransient is a single bit flip at a clock cycle.
	ModelTransient Model = "transient"
	// ModelIntermittent forces a bit to a value for a window of cycles.
	ModelIntermittent Model = "intermittent"
	// ModelPermanent forces a bit to a value for the whole run.
	ModelPermanent Model = "permanent"
)

// Kind converts the model to its bitarray representation.
func (m Model) Kind() (bitarray.FaultKind, error) {
	switch m {
	case ModelTransient:
		return bitarray.Transient, nil
	case ModelIntermittent:
		return bitarray.Intermittent, nil
	case ModelPermanent:
		return bitarray.Permanent, nil
	default:
		return 0, fmt.Errorf("fault: unknown model %q", string(m))
	}
}

// Site pins one single-bit fault to a location and time. A Mask carries
// one or more Sites (multi-bit / multi-structure injections carry several).
type Site struct {
	// Core is the processor core targeted; the simulators in this
	// repository are single-core, so Core is 0 in practice, but the
	// mask format carries it as the paper's masks do.
	Core int `json:"core"`
	// Structure names the microarchitectural structure, e.g. "l1d.data".
	Structure string `json:"structure"`
	// Entry and Bit locate the fault inside the structure.
	Entry int `json:"entry"`
	Bit   int `json:"bit"`
	// Model is the fault type.
	Model Model `json:"model"`
	// Cycle is the injection clock cycle.
	Cycle uint64 `json:"cycle"`
	// Duration is the active window in cycles (intermittent only).
	Duration uint64 `json:"duration,omitempty"`
	// StuckVal is the forced value (intermittent/permanent only).
	StuckVal uint8 `json:"stuck_val,omitempty"`
}

// Fault converts the site to the bitarray fault it arms.
func (s Site) Fault() (bitarray.Fault, error) {
	k, err := s.Model.Kind()
	if err != nil {
		return bitarray.Fault{}, err
	}
	return bitarray.Fault{
		Kind:     k,
		Entry:    s.Entry,
		Bit:      s.Bit,
		StuckVal: s.StuckVal,
		Start:    s.Cycle,
		Duration: s.Duration,
	}, nil
}

// Mask is one experiment of an injection campaign: the set of faults to
// arm before a single simulation run. The common single-bit study uses
// exactly one site per mask.
type Mask struct {
	// ID is the experiment index within the campaign, for log matching.
	ID    int    `json:"id"`
	Sites []Site `json:"sites"`
	// Weight is the share of the uniform fault population the mask
	// stands for. Uniformly generated masks leave it zero (read as 1); a
	// census mask carries the cycle mass of its liveness interval, so the
	// census weights tile Entries×BitsPerEntry×MaxCycle.
	Weight float64 `json:"weight,omitempty"`
}

// Validate checks the mask against a structure geometry lookup. The
// lookup returns (entries, bitsPerEntry, true) for known structures.
func (m Mask) Validate(geom func(structure string) (entries, bits int, ok bool)) error {
	if len(m.Sites) == 0 {
		return fmt.Errorf("fault: mask %d has no sites", m.ID)
	}
	return m.ValidateSites(geom)
}

// ValidateSites checks every site of the mask against a structure
// geometry lookup. Unlike Validate it accepts an empty mask: the
// campaign scheduler treats a mask with no sites as a fault-free run
// booted from scratch, so only the sites that exist need to be sound.
func (m Mask) ValidateSites(geom func(structure string) (entries, bits int, ok bool)) error {
	for i, s := range m.Sites {
		entries, bits, ok := geom(s.Structure)
		if !ok {
			return fmt.Errorf("fault: mask %d site %d: unknown structure %q", m.ID, i, s.Structure)
		}
		if s.Entry < 0 || s.Entry >= entries {
			return fmt.Errorf("fault: mask %d site %d: entry %d out of range [0,%d)", m.ID, i, s.Entry, entries)
		}
		if s.Bit < 0 || s.Bit >= bits {
			return fmt.Errorf("fault: mask %d site %d: bit %d out of range [0,%d)", m.ID, i, s.Bit, bits)
		}
		if _, err := s.Model.Kind(); err != nil {
			return fmt.Errorf("fault: mask %d site %d: %v", m.ID, i, err)
		}
		if s.Model == ModelIntermittent && s.Duration == 0 {
			return fmt.Errorf("fault: mask %d site %d: intermittent fault with zero duration", m.ID, i)
		}
		if s.StuckVal > 1 {
			return fmt.Errorf("fault: mask %d site %d: stuck value %d not a bit", m.ID, i, s.StuckVal)
		}
	}
	return nil
}

// GeneratorSpec parameterizes the fault mask generator for one campaign:
// one combination of hardware structure and benchmark, as in §III.B of
// the paper.
type GeneratorSpec struct {
	// Structure is the target structure name.
	Structure string
	// Entries and BitsPerEntry give the structure geometry.
	Entries, BitsPerEntry int
	// MaxCycle bounds the random injection cycle; it is the fault-free
	// execution length of the benchmark on the target simulator.
	MaxCycle uint64
	// Model selects the fault model for all generated masks.
	Model Model
	// Count is the number of masks (injection runs) to generate.
	Count int
	// Seed makes generation reproducible.
	Seed int64

	// SitesPerMask > 1 generates multi-bit faults within the structure
	// (combination (a)/(i,ii) of §III.A). Zero means 1.
	SitesPerMask int
	// Adjacent makes multi-bit masks physically clustered: all sites of
	// a mask land in the same entry on consecutive bit positions, the
	// spatial multi-bit-upset pattern of real particle strikes (burst
	// MBUs), rather than independently placed bits.
	Adjacent bool
	// Duration bounds the random duration for intermittent faults; the
	// generated duration is uniform in [1, Duration].
	Duration uint64
}

// Generate produces Count masks with uniformly random entry, bit and
// cycle, the one-step mask-generation process of the paper. The result is
// deterministic for a given spec.
func Generate(spec GeneratorSpec) ([]Mask, error) {
	if spec.Entries <= 0 || spec.BitsPerEntry <= 0 {
		return nil, fmt.Errorf("fault: generator spec for %q has bad geometry %d×%d",
			spec.Structure, spec.Entries, spec.BitsPerEntry)
	}
	if spec.Count <= 0 {
		return nil, fmt.Errorf("fault: generator spec for %q has non-positive count %d", spec.Structure, spec.Count)
	}
	if spec.MaxCycle == 0 {
		return nil, fmt.Errorf("fault: generator spec for %q has zero max cycle", spec.Structure)
	}
	sites := spec.SitesPerMask
	if sites <= 0 {
		sites = 1
	}
	if spec.Adjacent && sites > spec.BitsPerEntry {
		return nil, fmt.Errorf("fault: %d adjacent sites do not fit a %d-bit entry", sites, spec.BitsPerEntry)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	masks := make([]Mask, spec.Count)
	for i := range masks {
		m := Mask{ID: i, Sites: make([]Site, sites)}
		// Adjacent (burst) masks share one entry, one cycle and a run
		// of consecutive bits.
		burstEntry := rng.Intn(spec.Entries)
		burstBit := rng.Intn(spec.BitsPerEntry - sites + 1)
		burstCycle := uint64(rng.Int63n(int64(spec.MaxCycle))) + 1
		for j := range m.Sites {
			s := Site{
				Structure: spec.Structure,
				Entry:     rng.Intn(spec.Entries),
				Bit:       rng.Intn(spec.BitsPerEntry),
				Model:     spec.Model,
				Cycle:     uint64(rng.Int63n(int64(spec.MaxCycle))) + 1,
			}
			if spec.Adjacent {
				s.Entry = burstEntry
				s.Bit = burstBit + j
				s.Cycle = burstCycle
			}
			switch spec.Model {
			case ModelIntermittent:
				d := spec.Duration
				if d == 0 {
					d = spec.MaxCycle / 10
					if d == 0 {
						d = 1
					}
				}
				s.Duration = uint64(rng.Int63n(int64(d))) + 1
				s.StuckVal = uint8(rng.Intn(2))
			case ModelPermanent:
				s.StuckVal = uint8(rng.Intn(2))
				s.Cycle = 0 // permanent faults are present from power-on
			}
			m.Sites[j] = s
		}
		masks[i] = m
	}
	return masks, nil
}

// MultiStructure merges per-structure mask lists into masks that inject
// into several structures simultaneously (combination (b)/(iii) of
// §III.A). All lists must have equal length; mask i of the result carries
// site i of every list.
func MultiStructure(lists ...[]Mask) ([]Mask, error) {
	if len(lists) == 0 {
		return nil, fmt.Errorf("fault: MultiStructure needs at least one list")
	}
	n := len(lists[0])
	for _, l := range lists[1:] {
		if len(l) != n {
			return nil, fmt.Errorf("fault: MultiStructure lists have unequal lengths %d and %d", n, len(l))
		}
	}
	out := make([]Mask, n)
	for i := 0; i < n; i++ {
		m := Mask{ID: i}
		for _, l := range lists {
			m.Sites = append(m.Sites, l[i].Sites...)
		}
		out[i] = m
	}
	return out, nil
}

// ---- Statistical fault sampling (Leveugle et al., DATE 2009) ---------------

// ZFor returns the two-sided normal quantile for the given confidence
// level, or an error when the level lies outside the open interval
// (0, 1) — the domain on which a quantile exists. Configuration
// validation goes through this entry point so a bad stop_confidence is
// reported as such instead of silently producing a garbage z-score.
func ZFor(confidence float64) (float64, error) {
	if math.IsNaN(confidence) || confidence <= 0 || confidence >= 1 {
		return 0, fmt.Errorf("fault: confidence %v outside (0, 1)", confidence)
	}
	return zFor(confidence), nil
}

// maxZ is the two-sided quantile at the largest confidence level
// distinguishable from 1 in double precision — the finite ceiling the
// sampling arithmetic clamps to instead of overflowing to +Inf.
const maxZ = 8.29

// zFor returns the two-sided normal quantile for the given confidence
// level. The three levels used in practice are tabulated exactly; other
// levels go through the inverse error function. Out-of-domain levels
// clamp to the nearest representable quantile (0 below, maxZ above) so
// the sampling formulas stay finite; callers that want a diagnosis use
// ZFor.
func zFor(confidence float64) float64 {
	switch confidence {
	case 0.90:
		return 1.6448536269514722
	case 0.95:
		return 1.959963984540054
	case 0.99:
		return 2.5758293035489004
	}
	if math.IsNaN(confidence) || confidence <= 0 {
		return 0
	}
	if confidence >= 1 {
		return maxZ
	}
	// The two-sided quantile at confidence c satisfies erf(z/√2) = c.
	return math.Sqrt2 * math.Erfinv(confidence)
}

// SampleSize returns the number of fault injection runs required for a
// statistical campaign over a population of populationBits fault sites
// (structure bits × considered cycles, or just structure bits when the
// cycle is part of the uniform draw), at the given confidence (e.g. 0.99)
// and error margin (e.g. 0.03), assuming the worst-case p = 0.5:
//
//	n = N / (1 + e²·(N−1) / (z²·p·(1−p)))
//
// With N → ∞ this converges to the familiar z²·p(1−p)/e², which gives the
// paper's 1843 runs at 99%/3% and 663 runs at 99%/5%.
func SampleSize(populationBits uint64, confidence, margin float64) int {
	// Rounded to nearest, which is how the paper reports 1843 (from
	// 1843.03) and 663 (from 663.49).
	z := zFor(confidence)
	p := 0.5
	if math.IsNaN(margin) || margin <= 0 {
		// Only a census achieves a zero margin; an unbounded population
		// cannot be censused, so report the largest representable size.
		if populationBits == 0 || populationBits > math.MaxInt {
			return math.MaxInt
		}
		return int(populationBits)
	}
	num := z * z * p * (1 - p) / (margin * margin)
	if populationBits == 0 {
		return int(math.Round(num))
	}
	nf := float64(populationBits)
	n := nf / (1 + (margin*margin*(nf-1))/(z*z*p*(1-p)))
	// The finite-population formula approaches N from below but rounding
	// (or a degenerate z) can step past it; a sample can never exceed a
	// census.
	if r := int(math.Round(n)); r >= 0 && uint64(r) < populationBits {
		return r
	}
	if populationBits > math.MaxInt {
		return math.MaxInt
	}
	return int(populationBits)
}

// MarginFor returns the error margin achieved by n injection runs over a
// population of populationBits sites at the given confidence; the inverse
// of SampleSize. The paper notes that 2000 injections correspond to a
// 2.88% margin at 99% confidence.
func MarginFor(populationBits uint64, n int, confidence float64) float64 {
	z := zFor(confidence)
	p := 0.5
	if n <= 0 {
		// Nothing sampled: the proportion is unconstrained.
		return 1
	}
	if populationBits == 0 {
		return z * math.Sqrt(p*(1-p)/float64(n))
	}
	if populationBits == 1 {
		// A one-site population is decided by its single run — zero
		// sampling error — and the N−1 divisor below would be zero.
		return 0
	}
	nf := float64(populationBits)
	if float64(n) >= nf {
		return 0 // census or better
	}
	// Solve n = N / (1 + e²(N−1)/(z²p(1−p))) for e.
	e2 := (nf/float64(n) - 1) * z * z * p * (1 - p) / (nf - 1)
	if e2 < 0 {
		return 0
	}
	return math.Sqrt(e2)
}
