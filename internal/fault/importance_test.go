package fault

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
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

// referenceImportance is the sampler as first written, over a
// materialized interval list with cumulative-mass indexes — the
// reference the streaming sampler must reproduce mask for mask.
func referenceImportance(spec GeneratorSpec, profile *bitarray.Profile, boost float64) []Mask {
	if boost <= 0 {
		boost = DefaultImportanceBoost
	}
	var live, dead []liveInterval
	var liveCum, deadCum []uint64
	var liveMass, deadMass uint64
	_ = walkIntervals(spec, profile, func(iv liveInterval) {
		if iv.live {
			liveMass += iv.mass()
			live, liveCum = append(live, iv), append(liveCum, liveMass)
		} else {
			deadMass += iv.mass()
			dead, deadCum = append(dead, iv), append(deadCum, deadMass)
		}
	})
	total := liveMass + deadMass
	beta := 0.0
	if liveMass > 0 {
		beta = 1
		if deadMass > 0 {
			beta = boost * float64(liveMass) / (boost*float64(liveMass) + float64(deadMass))
		}
	}
	draw := func(ivs []liveInterval, cum []uint64, off uint64) Site {
		i := sort.Search(len(cum), func(j int) bool { return cum[j] > off })
		return Site{Structure: spec.Structure, Entry: ivs[i].entry, Bit: ivs[i].bit, Model: ModelTransient,
			Cycle: ivs[i].lo + (off - (cum[i] - ivs[i].mass()))}
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	masks := make([]Mask, spec.Count)
	for i := range masks {
		if rng.Float64() < beta {
			masks[i] = Mask{ID: i, Sites: []Site{draw(live, liveCum, uint64(rng.Int63n(int64(liveMass))))},
				Weight: float64(liveMass) / (beta * float64(total))}
		} else {
			masks[i] = Mask{ID: i, Sites: []Site{draw(dead, deadCum, uint64(rng.Int63n(int64(deadMass))))},
				Weight: float64(deadMass) / ((1 - beta) * float64(total))}
		}
	}
	return masks
}

// wideProfile is a register-file-like profile with about half a million
// liveness intervals: every word of four 128-bit entries is written and
// read back, alternately, every few cycles.
func wideProfile() (GeneratorSpec, *bitarray.Profile) {
	const entries, maxCycle = 4, 20000
	events := make([][]bitarray.ProfileEvent, entries)
	for e := range events {
		for c := uint64(1 + e); c < maxCycle; c += 20 {
			kind := bitarray.AccessWrite
			if c/20%2 == 1 {
				kind = bitarray.AccessRead
			}
			for w := uint16(0); w < 2; w++ {
				events[e] = append(events[e], bitarray.ProfileEvent{Cycle: c + uint64(w), FirstBit: 64 * w, NBits: 64, Kind: kind})
			}
		}
	}
	return GeneratorSpec{Structure: "rf", Entries: entries, BitsPerEntry: 128, MaxCycle: maxCycle,
		Model: ModelTransient, Count: 300, Seed: 5}, bitarray.NewProfile("rf", 128, events)
}

// The sampler draws the reference's masks without holding the
// population's intervals: what it allocates grows with the masks it
// returns, not with the half a million intervals it walks (the
// materializing sampler allocated 242 MB on this profile).
func TestGenerateImportanceStreamsTheIntervals(t *testing.T) {
	spec, prof := wideProfile()
	for _, boost := range []float64{0, 40} {
		got, err := GenerateImportance(spec, prof, boost)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceImportance(spec, prof, boost); !reflect.DeepEqual(got, want) {
			t.Fatalf("boost %v: streamed draws differ from the reference", boost)
		}
	}
	small := testGenSpec(300)
	if got, want := mustImportance(t, small, testProfile()), referenceImportance(small, testProfile(), DefaultImportanceBoost); !reflect.DeepEqual(got, want) {
		t.Fatal("streamed draws differ from the reference on the small profile")
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mustImportance(t, spec, prof)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("drawing %d masks allocated %d bytes: the intervals were materialized", spec.Count, alloc)
	}
}

func mustImportance(t *testing.T, spec GeneratorSpec, prof *bitarray.Profile) []Mask {
	t.Helper()
	masks, err := GenerateImportance(spec, prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	return masks
}
