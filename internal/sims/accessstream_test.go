package sims

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/core"
	"repro/internal/workload"
)

// update regenerates testdata/access_streams.json. The file pins the
// fault-manifestation model itself (DESIGN §14), so regenerating it is
// legitimate only for a change that means to alter which array bits a
// golden run touches and when — never to make a refactor or an
// optimisation pass.
var update = flag.Bool("update", false, "regenerate testdata/access_streams.json (intended model changes only)")

const accessStreamFile = "testdata/access_streams.json"

// arrayPin is everything a golden run does to one faultable array.
type arrayPin struct {
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	Events int    `json:"events"`
	// Profile is the SHA-256 of the array's liveness profile: per entry,
	// every read, write and eviction with its cycle and bit range, in
	// recorded order.
	Profile string `json:"profile_sha256"`
}

// streamPin is one {tool, benchmark} golden run.
type streamPin struct {
	Tool         string              `json:"tool"`
	Benchmark    string              `json:"benchmark"`
	Cycles       uint64              `json:"cycles"`
	Instructions uint64              `json:"instructions"`
	Stats        map[string]uint64   `json:"stats"`
	Arrays       map[string]arrayPin `json:"arrays"`
}

// profileDigest hashes the decoded event stream of every entry.
func profileDigest(p *bitarray.Profile) string {
	h := sha256.New()
	var buf [13]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(p.Entries))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(p.BitsPerEntry))
	h.Write(buf[:12])
	for e := 0; e < p.Entries; e++ {
		it := p.Events(e)
		for ev, ok := it.Next(); ok; ev, ok = it.Next() {
			binary.LittleEndian.PutUint64(buf[:8], ev.Cycle)
			binary.LittleEndian.PutUint16(buf[8:10], ev.FirstBit)
			binary.LittleEndian.PutUint16(buf[10:12], ev.NBits)
			buf[12] = byte(ev.Kind)
			h.Write(buf[:])
		}
		// An entry boundary, so moving an event to a neighbour shows.
		h.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenStream runs one golden run and records its pin. Unprofiled, the
// pin has each array's counters but no events and no profile digest.
func goldenStream(t *testing.T, tool, bench string, profiled bool) streamPin {
	t.Helper()
	w, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := Factory(tool, w)
	if err != nil {
		t.Fatal(err)
	}
	sim := factory()
	arrs := sim.Structures()
	names := make([]string, 0, len(arrs))
	for name, a := range arrs {
		if profiled {
			a.StartProfile(sim.(core.CycleSource).CurrentCycle)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	res := sim.Run(1 << 62)
	if res.Status != core.RunCompleted {
		t.Fatalf("%s/%s: golden run %v (%s)", tool, bench, res.Status, res.AssertMsg)
	}
	pin := streamPin{
		Tool: tool, Benchmark: bench,
		Cycles: res.Cycles, Instructions: res.Committed,
		Stats: sim.Stats(), Arrays: make(map[string]arrayPin, len(names)),
	}
	for _, name := range names {
		a := arrs[name]
		ap := arrayPin{Reads: a.Reads(), Writes: a.Writes()}
		if profiled {
			p := a.StopProfile()
			ap.Events, ap.Profile = p.EventCount(), profileDigest(p)
		}
		pin.Arrays[name] = ap
	}
	// The machine's storage goes back to the boot pools full of the
	// run's content, so the next golden run (the next tool, or this one
	// under -count=2) boots on recycled storage.
	sim.(memReleaser).ReleaseMemory()
	return pin
}

// TestGoldenAccessStreamsPinned is the zero-tolerance guard of the core
// loops: for every tool on the two benchmark programs, the complete
// sequence of (cycle, read/write/evict, entry, bit range) every
// faultable array sees in a golden run, its access counters, the
// statistics map and the run length must equal the committed pin bit
// for bit. Faultable-array accesses are the fault-manifestation model;
// a core-loop change that moves one of them changes what injected
// faults do.
func TestGoldenAccessStreamsPinned(t *testing.T) {
	var got []streamPin
	for _, tool := range Tools() {
		for _, bench := range []string{"qsort", "sha"} {
			got = append(got, goldenStream(t, tool, bench, true))
		}
	}
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(accessStreamFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(accessStreamFile, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(accessStreamFile)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(enc, want) {
		return
	}
	var pinned []streamPin
	if err := json.Unmarshal(want, &pinned); err != nil {
		t.Fatalf("%s: %v", accessStreamFile, err)
	}
	if len(pinned) != len(got) {
		t.Fatalf("%s pins %d runs, the test makes %d", accessStreamFile, len(pinned), len(got))
	}
	for i, g := range got {
		w := pinned[i]
		id := g.Tool + "/" + g.Benchmark
		if g.Cycles != w.Cycles || g.Instructions != w.Instructions {
			t.Errorf("%s: %d cycles / %d instructions, pinned %d / %d", id, g.Cycles, g.Instructions, w.Cycles, w.Instructions)
		}
		for k, v := range g.Stats {
			if w.Stats[k] != v {
				t.Errorf("%s: stat %s = %d, pinned %d", id, k, v, w.Stats[k])
			}
		}
		for name, a := range g.Arrays {
			if w.Arrays[name] != a {
				t.Errorf("%s: array %s = %+v, pinned %+v", id, name, a, w.Arrays[name])
			}
		}
	}
	t.Fatalf("golden access streams differ from %s", accessStreamFile)
}

// TestGoldenAccessCountsPinnedUnprofiled is the pin's sibling for runs
// nothing observes. The pin profiles every array, so every read there
// fetches its bits; with no profile and no fault attached an array is
// quiet, and its owner may serve reads from its own copy. The same golden
// runs, unprofiled, must still count every access: run length,
// statistics and every array's read and write counters equal the pinned
// ones.
func TestGoldenAccessCountsPinnedUnprofiled(t *testing.T) {
	want, err := os.ReadFile(accessStreamFile)
	if err != nil {
		t.Fatal(err)
	}
	var pinned []streamPin
	if err := json.Unmarshal(want, &pinned); err != nil {
		t.Fatalf("%s: %v", accessStreamFile, err)
	}
	i := 0
	for _, tool := range Tools() {
		for _, bench := range []string{"qsort", "sha"} {
			if i == len(pinned) {
				t.Fatalf("%s pins %d runs, the test makes more", accessStreamFile, len(pinned))
			}
			g, w := goldenStream(t, tool, bench, false), pinned[i]
			i++
			id := g.Tool + "/" + g.Benchmark
			if g.Tool != w.Tool || g.Benchmark != w.Benchmark {
				t.Fatalf("%s: pinned run %d is %s/%s", id, i-1, w.Tool, w.Benchmark)
			}
			if g.Cycles != w.Cycles || g.Instructions != w.Instructions {
				t.Errorf("%s: %d cycles / %d instructions, pinned %d / %d", id, g.Cycles, g.Instructions, w.Cycles, w.Instructions)
			}
			if len(g.Stats) != len(w.Stats) {
				t.Errorf("%s: %d statistics, pinned %d", id, len(g.Stats), len(w.Stats))
			}
			for k, v := range g.Stats {
				if w.Stats[k] != v {
					t.Errorf("%s: stat %s = %d, pinned %d", id, k, v, w.Stats[k])
				}
			}
			if len(g.Arrays) != len(w.Arrays) {
				t.Errorf("%s: %d arrays, pinned %d", id, len(g.Arrays), len(w.Arrays))
			}
			for name, a := range g.Arrays {
				if wa := w.Arrays[name]; a.Reads != wa.Reads || a.Writes != wa.Writes {
					t.Errorf("%s: array %s: %d reads / %d writes, pinned %d / %d", id, name, a.Reads, a.Writes, wa.Reads, wa.Writes)
				}
			}
		}
	}
	if i != len(pinned) {
		t.Fatalf("%s pins %d runs, the test makes %d", accessStreamFile, len(pinned), i)
	}
}
