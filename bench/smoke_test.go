package main

import (
	"testing"
	"time"
)

// TestSmokeWorkloadDrivers pushes a 4-mask single-cell campaign through
// the driver of each of the four workloads — set-up, one repetition and
// the output check — in a few seconds. The full campaigns run only
// under the bench command.
func TestSmokeWorkloadDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	start := time.Now()
	for _, w := range workloads {
		w.tools, w.structs, w.perCell = []string{"gefin-x86"}, []string{"rf.int"}, 4
		sys, cfg, err := setUp(w, 3, t.TempDir())
		if err != nil {
			t.Fatalf("%s: set-up: %v", w.name, err)
		}
		if n := maskCount(cfg); n != 4 {
			t.Errorf("%s: %d masks, want 4", w.name, n)
		}
		res := &e2eResult{}
		for rep := 0; rep < 2; rep++ {
			out, err := sys.campaign(cfg)
			if err != nil {
				t.Fatalf("%s: campaign: %v", w.name, err)
			}
			if v := checkRep(cfg, out, res); v != "" {
				t.Errorf("%s: repetition %d: %s", w.name, rep, v)
			}
		}
		if f, ok := sys.(*fleet); ok {
			if v, err := f.checkAgainstSingleNode(cfg); err != nil || v != "" {
				t.Errorf("%s: single-node check: %q, %v", w.name, v, err)
			}
		}
		if err := sys.close(); err != nil {
			t.Errorf("%s: close: %v", w.name, err)
		}
	}
	t.Logf("four drivers in %v", time.Since(start))
}

// The output check must catch a missing mask, a duplicate and a digest
// that moves between repetitions.
func TestCheckRepCatchesViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; skipped with -short")
	}
	w := workloads[0]
	w.tools, w.structs, w.perCell = []string{"gefin-x86"}, []string{"rf.int"}, 4
	sys, cfg, err := setUp(w, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	out, err := sys.campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := &e2eResult{}
	if v := checkRep(cfg, out, res); v != "" {
		t.Fatalf("clean repetition flagged: %s", v)
	}
	key := cfg.Keys()[0]
	good := out.records[key]

	out.records[key] = good[:3]
	if v := checkRep(cfg, out, res); v == "" {
		t.Error("a missing record passed")
	}
	dup := append(good[:3:3], good[0])
	out.records[key] = dup
	if v := checkRep(cfg, out, res); v == "" {
		t.Error("a duplicated mask passed")
	}
	changed := append(good[:0:0], good...)
	changed[2].Cycles++
	out.records[key] = changed
	if v := checkRep(cfg, out, res); v == "" {
		t.Error("a changed record kept the digest")
	}
}
