package main

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := medianOf(c.xs); got != c.want {
			t.Errorf("medianOf(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(medianOf(nil)) {
		t.Error("median of nothing must be NaN")
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.1, 1.4}, {1, 5}} {
		if got := quantile([]float64{1, 2, 3, 4, 5}, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(1..5, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	s := summarize([]float64{9, 1, 5})
	if s.Median != 5 || s.Min != 1 || s.Max != 9 || s.N != 3 {
		t.Errorf("summarize = %+v", s)
	}
}

// A tail percentile is reportable only with at least ten samples beyond
// it: p95 needs 200 samples, p90 needs 100.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	}
	if v, ok := percentile(seq(200), 95); v != 190 || !ok {
		t.Errorf("p95 of 1..200 = %v, %v; want 190, reportable", v, ok)
	}
	if v, ok := percentile(seq(199), 95); v != 190 || ok {
		t.Errorf("p95 of 1..199 = %v, %v; want 190, not reportable (9 beyond)", v, ok)
	}
	if _, ok := percentile(seq(100), 90); !ok {
		t.Error("p90 of 100 samples has 10 beyond and must be reportable")
	}
	if _, ok := percentile(seq(40), 90); ok {
		t.Error("p90 of 40 samples has 4 beyond and must not be reportable")
	}
	if v, _ := percentile(seq(7), 50); v != 4 {
		t.Errorf("p50 of 1..7 = %v, want 4", v)
	}
}

func TestBoundComparison(t *testing.T) {
	for _, c := range []struct {
		base, got float64
		better    string
		bound     float64
		want      bool
	}{
		{100, 91, "higher", 0.10, true},  // 9% slower: inside
		{100, 89, "higher", 0.10, false}, // 11% slower: regression
		{100, 150, "higher", 0.10, true}, // faster is never a regression
		{10, 10.7, "lower", 0.08, true},  // 7% more CPU: inside
		{10, 10.9, "lower", 0.08, false}, // 9% more CPU: regression
		{10, 2, "lower", 0.08, true},     // cheaper is never a regression
		{100, 90, "higher", 0.10, true},  // exactly on the bound passes
		{0, 5, "lower", 0.10, true},      // no base, nothing to compare
	} {
		if got := withinBound(c.base, c.got, c.better, c.bound); got != c.want {
			t.Errorf("withinBound(%v, %v, %s, %v) = %v, want %v", c.base, c.got, c.better, c.bound, got, c.want)
		}
	}
	if w := worseBy(200, 150, "higher"); w != 0.25 {
		t.Errorf("worseBy = %v, want 0.25", w)
	}
}

func TestSpreadFrac(t *testing.T) {
	if got := spreadFrac([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spreadFrac = %v, want 0.3", got)
	}
}

// The digest must not depend on the order records or cells arrive in,
// and must change when any record does.
func TestDigestOverUnorderedRecords(t *testing.T) {
	recs := func(n int) []core.LogRecord {
		out := make([]core.LogRecord, n)
		for i := range out {
			out[i] = core.LogRecord{MaskID: i, Status: "completed", Cycles: uint64(100 + i),
				Sites: []fault.Site{{Structure: "rf.int", Entry: i, Bit: 1, Model: fault.ModelTransient, Cycle: uint64(i)}}}
		}
		return out
	}
	a := map[string][]core.LogRecord{"x": recs(20), "y": recs(7)}
	shuffled := map[string][]core.LogRecord{"y": recs(7), "x": recs(20)}
	rand.New(rand.NewSource(3)).Shuffle(20, func(i, j int) { shuffled["x"][i], shuffled["x"][j] = shuffled["x"][j], shuffled["x"][i] })
	da, err := digestRecords(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := digestRecords(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Errorf("digest depends on order: %s vs %s", da, db)
	}
	shuffled["x"][3].Cycles++
	dc, _ := digestRecords(shuffled)
	if dc == da {
		t.Error("digest did not change with a record")
	}
	moved := map[string][]core.LogRecord{"x": recs(7), "y": recs(20)}
	if dm, _ := digestRecords(moved); dm == da {
		t.Error("digest ignores which cell a record belongs to")
	}
}
