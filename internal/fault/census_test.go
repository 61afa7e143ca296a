package fault

import (
	"strings"
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

// A census past the cap ends in a named error from the counting walk,
// before any mask is allocated. Outside the profile every (entry, bit)
// site is one class, so a 2^30-entry structure would walk for hours if
// the count did not stop at the cap.
func TestEnumerateExhaustiveRefusesOversizedCensus(t *testing.T) {
	spec := testGenSpec(0)
	spec.Entries, spec.BitsPerEntry = 1<<30, 64
	_, err := EnumerateExhaustive(spec, testProfile())
	if err == nil {
		t.Fatal("census over the cap accepted")
	}
	for _, want := range []string{`"rob"`, "1048577 equivalence classes", "cap of 1048576", "sample"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("census error %q does not name %q", err, want)
		}
	}
}
