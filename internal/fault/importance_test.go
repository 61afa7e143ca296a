package fault

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bitarray"
)

// testProfile builds a 2×2 profile over 100 cycles with a known liveness
// structure:
//
//	entry 0, bits 0-1: write at 10, read at 40  → intervals
//	  [1,10] dead (write), [11,40] live (read), [41,100] dead (no access)
//	entry 1, bit 0:    read at 25              → [1,25] live, [26,100] dead
//	entry 1, bit 1:    no access               → [1,100] dead
func testProfile() *bitarray.Profile {
	return bitarray.NewProfile("rob", 2, [][]bitarray.ProfileEvent{
		{
			{Cycle: 10, FirstBit: 0, NBits: 2, Kind: bitarray.AccessWrite},
			{Cycle: 40, FirstBit: 0, NBits: 2, Kind: bitarray.AccessRead},
		},
		{
			{Cycle: 25, FirstBit: 0, NBits: 1, Kind: bitarray.AccessRead},
		},
	})
}

func testGenSpec(count int) GeneratorSpec {
	return GeneratorSpec{
		Structure: "rob", Entries: 2, BitsPerEntry: 2,
		MaxCycle: 100, Model: ModelTransient,
		Count: count, Seed: 7,
	}
}

// The census enumerates exactly the liveness intervals of the profile,
// one representative per interval at the interval's first cycle, and the
// weights partition the uniform population Entries×Bits×MaxCycle.
func TestEnumerateExhaustiveCensus(t *testing.T) {
	masks, err := EnumerateExhaustive(testGenSpec(0), testProfile())
	if err != nil {
		t.Fatal(err)
	}
	// Per site: entry 0 bits 0,1 have 3 intervals each; entry 1 bit 0 has
	// 2; entry 1 bit 1 has 1. Nine equivalence classes total.
	if len(masks) != 9 {
		t.Fatalf("census has %d classes, want 9", len(masks))
	}
	var sum float64
	for i, m := range masks {
		if m.ID != i {
			t.Fatalf("mask %d carries ID %d", i, m.ID)
		}
		if len(m.Sites) != 1 || m.Sites[0].Model != ModelTransient {
			t.Fatalf("mask %d is not a single-site transient: %+v", i, m)
		}
		if m.Weight <= 0 {
			t.Fatalf("mask %d has non-positive weight %v", i, m.Weight)
		}
		sum += m.Weight
	}
	if want := float64(2 * 2 * 100); sum != want {
		t.Fatalf("census weights sum to %v, want the uniform population %v", sum, want)
	}
	// Spot-check one known class: entry 1 bit 0, live interval [1,25].
	found := false
	for _, m := range masks {
		s := m.Sites[0]
		if s.Entry == 1 && s.Bit == 0 && s.Cycle == 1 {
			found = true
			if m.Weight != 25 {
				t.Fatalf("entry 1 bit 0 live class weighs %v, want 25", m.Weight)
			}
		}
	}
	if !found {
		t.Fatal("census misses the entry 1 bit 0 live class")
	}
}

func TestEnumerateExhaustiveRejectsNonCensusSpecs(t *testing.T) {
	spec := testGenSpec(0)
	spec.Model = ModelPermanent
	if _, err := EnumerateExhaustive(spec, testProfile()); err == nil {
		t.Fatal("permanent-model census accepted")
	}
	spec = testGenSpec(0)
	spec.SitesPerMask = 2
	if _, err := EnumerateExhaustive(spec, testProfile()); err == nil {
		t.Fatal("multi-site census accepted")
	}
	if _, err := EnumerateExhaustive(testGenSpec(0), nil); err == nil {
		t.Fatal("nil-profile census accepted")
	}
}

// Importance draws are deterministic in the seed, stay inside the
// population, and carry exactly the two stratum weights.
func TestGenerateImportanceWeights(t *testing.T) {
	const n = 2000
	masks, err := GenerateImportance(testGenSpec(n), testProfile(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(masks) != n {
		t.Fatalf("%d masks, want %d", len(masks), n)
	}
	// Strata of testProfile: live mass 2×30 + 25 = 85, dead mass 315,
	// total 400.
	const liveMass, deadMass, total = 85.0, 315.0, 400.0
	beta := DefaultImportanceBoost * liveMass / (DefaultImportanceBoost*liveMass + deadMass)
	wLive := liveMass / (beta * total)
	wDead := deadMass / ((1 - beta) * total)
	var sum float64
	var liveDraws int
	for i, m := range masks {
		if m.ID != i || len(m.Sites) != 1 {
			t.Fatalf("mask %d malformed: %+v", i, m)
		}
		s := m.Sites[0]
		if s.Entry < 0 || s.Entry >= 2 || s.Bit < 0 || s.Bit >= 2 || s.Cycle < 1 || s.Cycle > 100 {
			t.Fatalf("mask %d outside the population: %+v", i, s)
		}
		switch {
		case math.Abs(m.Weight-wLive) < 1e-12:
			liveDraws++
		case math.Abs(m.Weight-wDead) < 1e-12:
		default:
			t.Fatalf("mask %d weight %v is neither stratum weight (%v live, %v dead)", i, m.Weight, wLive, wDead)
		}
		sum += m.Weight
	}
	// E[w] = 1 per draw (Horvitz–Thompson), so the mean weight must hover
	// near 1; and the live stratum must actually be oversampled relative
	// to its 85/400 share.
	if mean := sum / n; math.Abs(mean-1) > 0.1 {
		t.Fatalf("mean weight %v, want ≈ 1 (unbiased)", mean)
	}
	if share := float64(liveDraws) / n; share < liveMass/total {
		t.Fatalf("live share %v not oversampled beyond the uniform %v", share, liveMass/total)
	}

	again, err := GenerateImportance(testGenSpec(n), testProfile(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(masks, again) {
		t.Fatal("importance draw not deterministic in the seed")
	}
}

// Degenerate strata collapse to uniform sampling of the other with unit
// weights — no NaN, no Inf.
func TestGenerateImportanceDegenerateStrata(t *testing.T) {
	dead := bitarray.NewProfile("rob", 1, [][]bitarray.ProfileEvent{{}})
	spec := testGenSpec(50)
	spec.Entries, spec.BitsPerEntry = 1, 1
	masks, err := GenerateImportance(spec, dead, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range masks {
		if m.Weight != 1 {
			t.Fatalf("all-dead population draw weighs %v, want exactly 1", m.Weight)
		}
	}

	live := bitarray.NewProfile("rob", 1, [][]bitarray.ProfileEvent{
		{{Cycle: 100, FirstBit: 0, NBits: 1, Kind: bitarray.AccessRead}},
	})
	masks, err = GenerateImportance(spec, live, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range masks {
		if m.Weight != 1 {
			t.Fatalf("all-live population draw weighs %v, want exactly 1", m.Weight)
		}
	}
}

func TestGenerateImportanceRejectsBadSpecs(t *testing.T) {
	spec := testGenSpec(10)
	spec.Model = ModelIntermittent
	if _, err := GenerateImportance(spec, testProfile(), 0); err == nil {
		t.Fatal("intermittent-model importance sampling accepted")
	}
	spec = testGenSpec(0)
	if _, err := GenerateImportance(spec, testProfile(), 0); err == nil {
		t.Fatal("zero-count importance sampling accepted")
	}
	spec = testGenSpec(10)
	if _, err := GenerateImportance(spec, nil, 0); err == nil {
		t.Fatal("nil-profile importance sampling accepted")
	}
}
