package adaptive

import (
	"math"
	"testing"
)

var classes = []string{"Masked", "SDC", "DUE", "Timeout", "Crash", "Assert"}

func TestNewValidates(t *testing.T) {
	bad := []Config{
		{Margin: 0, Confidence: 0.99, Classes: classes},
		{Margin: 1, Confidence: 0.99, Classes: classes},
		{Margin: -0.1, Confidence: 0.99, Classes: classes},
		{Margin: math.NaN(), Confidence: 0.99, Classes: classes},
		{Margin: 0.05, Confidence: 1, Classes: classes},
		{Margin: 0.05, Confidence: 0, Classes: classes},
		{Margin: 0.05, Confidence: 1.2, Classes: classes},
		{Margin: 0.05, Confidence: 0.99},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted a bad config", cfg)
		}
	}
	if _, err := New(Config{Margin: 0.05, Confidence: 0.99, Classes: classes}); err != nil {
		t.Fatalf("New rejected a good config: %v", err)
	}
}

func TestUndecidedUntilEnoughRuns(t *testing.T) {
	e, err := New(Config{Margin: 0.03, Confidence: 0.99, Classes: classes})
	if err != nil {
		t.Fatal(err)
	}
	if e.Decided() {
		t.Fatal("decided with zero runs")
	}
	if m := e.EffectiveMargin(); m != 1 {
		t.Fatalf("EffectiveMargin() = %v before any run, want 1", m)
	}
	// A 50/50 split needs ~the paper's 1843 runs at 99%/3%; feed 200 and
	// the estimator must still be undecided.
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			e.Add("Masked")
		} else {
			e.Add("SDC")
		}
	}
	if e.Decided() {
		t.Fatalf("decided at n=200 with a 50/50 split (margin %v)", e.EffectiveMargin())
	}
	for i := 0; i < 1900; i++ {
		if i%2 == 0 {
			e.Add("Masked")
		} else {
			e.Add("SDC")
		}
	}
	if !e.Decided() {
		t.Fatalf("undecided at n=2100 with a 50/50 split (margin %v)", e.EffectiveMargin())
	}
}

func TestSkewedCellDecidesEarly(t *testing.T) {
	// An all-Masked cell pins every proportion quickly: the k=0 classes
	// share the k=n class's complementary interval.
	e, _ := New(Config{Margin: 0.10, Confidence: 0.95, Classes: classes})
	n := 0
	for !e.Decided() {
		e.Add("Masked")
		if n++; n > 500 {
			t.Fatalf("all-Masked cell undecided after 500 runs (margin %v)", e.EffectiveMargin())
		}
	}
	if n >= 100 {
		t.Errorf("all-Masked cell needed %d runs for a 10%% margin", n)
	}
	// And far fewer than the 50/50 worst case at the same target.
	u, _ := New(Config{Margin: 0.10, Confidence: 0.95, Classes: classes})
	m := 0
	for !u.Decided() {
		if m%2 == 0 {
			u.Add("Masked")
		} else {
			u.Add("SDC")
		}
		m++
	}
	if n >= m {
		t.Errorf("skewed cell (%d runs) not cheaper than 50/50 cell (%d runs)", n, m)
	}
}

func TestDecisionOrderIndependent(t *testing.T) {
	// The decision is a function of the counts, not the feeding order.
	a, _ := New(Config{Margin: 0.15, Confidence: 0.95, Classes: classes})
	b, _ := New(Config{Margin: 0.15, Confidence: 0.95, Classes: classes})
	seq := []string{"Masked", "Masked", "SDC", "Masked", "DUE", "Masked", "Masked", "SDC"}
	for i := 0; i < 10; i++ {
		for _, c := range seq {
			a.Add(c)
		}
		for j := len(seq) - 1; j >= 0; j-- {
			b.Add(seq[j])
		}
		if a.Decided() != b.Decided() || a.EffectiveMargin() != b.EffectiveMargin() {
			t.Fatalf("order-dependent decision at round %d", i)
		}
	}
}

func TestUnknownClassWidensDecision(t *testing.T) {
	e, _ := New(Config{Margin: 0.10, Confidence: 0.95, Classes: classes})
	for i := 0; i < 200; i++ {
		e.Add("Masked")
	}
	if !e.Decided() {
		t.Fatal("baseline cell undecided")
	}
	e.Add("something-new")
	cls, counts := e.Counts()
	found := false
	for i, c := range cls {
		if c == "something-new" && counts[i] == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("unknown class not tracked")
	}
}

func TestWilsonHalfWidthAgainstKnownValues(t *testing.T) {
	// k=0: hw = z²/(2n) / (1+z²/n).
	z := 1.959963984540054
	n := uint64(100)
	want := z * z / (2 * 100) / (1 + z*z/100)
	if got := wilsonHalfWidth(0, n, z); math.Abs(got-want) > 1e-12 {
		t.Errorf("wilsonHalfWidth(0,100) = %v, want %v", got, want)
	}
	// Symmetric in k ↔ n−k.
	if a, b := wilsonHalfWidth(30, 100, z), wilsonHalfWidth(70, 100, z); math.Abs(a-b) > 1e-12 {
		t.Errorf("half-width asymmetric: %v vs %v", a, b)
	}
	// Monotone shrinking with n at fixed proportion.
	if a, b := wilsonHalfWidth(50, 100, z), wilsonHalfWidth(500, 1000, z); b >= a {
		t.Errorf("half-width not shrinking: %v → %v", a, b)
	}
}

// The rule evaluates only at cadence boundaries, does not stop on a
// decision that leaves nothing to cancel, and is frozen once it fires.
func TestRuleBoundariesAndFinalRunException(t *testing.T) {
	cfg := Config{Margin: 0.10, Confidence: 0.95, CheckEvery: 100, Classes: classes}
	feed := func(r *Rule, n int, lastHasMore bool) (stoppedAt int) {
		for i := 1; i <= n; i++ {
			if r.Add("Masked", i < n || lastHasMore) {
				return i
			}
		}
		return 0
	}
	// 100 all-Masked runs pin every class to ±10% at 95% — but only the
	// boundary at run 100 looks, although run 60 would decide too.
	r, err := NewRule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if at := feed(r, 250, true); at != 100 || !r.Stopped() || r.N() != 100 {
		t.Fatalf("rule fired at run %d (stopped %v, n %d), want 100", at, r.Stopped(), r.N())
	}
	margin := r.Margin()
	if r.Add("SDC", true) || r.N() != 100 || r.Margin() != margin {
		t.Fatalf("a fired rule took another run: n %d, margin %v (was %v)", r.N(), r.Margin(), margin)
	}
	// The same decision on the cell's last run has nothing to cancel.
	r, _ = NewRule(cfg)
	if at := feed(r, 100, false); at != 0 || r.Stopped() || r.Boundary() != 200 {
		t.Fatalf("decision on the final run: fired at %d, stopped %v, next boundary %d", at, r.Stopped(), r.Boundary())
	}
	// A zero cadence means the default one.
	cfg.CheckEvery = 0
	r, _ = NewRule(cfg)
	if r.Boundary() != DefaultCheckEvery {
		t.Fatalf("default cadence: first boundary %d, want %d", r.Boundary(), DefaultCheckEvery)
	}
}
