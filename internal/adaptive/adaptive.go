// Package adaptive implements the sequential-confidence stopping rule
// of budget-driven injection campaigns: per-cell Wilson score intervals
// over the outcome-class proportions, stopping as soon as every class
// is estimated to the target margin at the target confidence.
//
// The estimator is deliberately dumb about scheduling: it consumes a
// multiset of class labels and answers "decided?" — the decision is a
// pure function of the labels fed so far, independent of feeding order
// (only counts enter the interval). The campaign scheduler exploits
// that to keep early stopping deterministic: it evaluates the estimator
// only at completion boundaries over the deterministic simulation
// order, so a given mask population always stops at the same run count
// no matter how workers interleave.
//
// Wilson (1927) score intervals rather than the normal approximation:
// campaign cells routinely see classes with very few (or zero) hits,
// exactly where the Wald interval collapses to zero width and would
// stop immediately and wrongly. The Wilson half-width at zero observed
// hits is z²/(2n)/(1+z²/n) — still positive, shrinking with n — so a
// rare class keeps the campaign running until its proportion is
// genuinely pinned.
package adaptive

import (
	"fmt"
	"math"

	"repro/internal/fault"
)

// DefaultCheckEvery is the completion-boundary cadence used when a
// config does not name one: the estimator is consulted every this many
// completed runs of a cell.
const DefaultCheckEvery = 50

// Config parameterizes one cell's stopping rule.
type Config struct {
	// Margin is the target half-width of every class interval (e.g.
	// 0.03 for ±3 points).
	Margin float64
	// Confidence is the interval confidence level (e.g. 0.99).
	Confidence float64
	// CheckEvery is the completion-boundary cadence; 0 means
	// DefaultCheckEvery.
	CheckEvery int
	// Classes is the closed universe of outcome classes. All of them —
	// observed or not — must reach the margin: a class never seen still
	// carries a positive Wilson half-width until n is large enough to
	// bound its proportion near zero.
	Classes []string
}

// Estimator accumulates outcome classes of one campaign cell and
// answers the sequential stopping question. It is not safe for
// concurrent use; the scheduler serializes Add/Decided under its own
// completion lock.
type Estimator struct {
	z      float64
	margin float64
	order  []string
	counts map[string]uint64
	n      uint64
}

// New validates the config and builds an estimator.
func New(cfg Config) (*Estimator, error) {
	if math.IsNaN(cfg.Margin) || cfg.Margin <= 0 || cfg.Margin >= 1 {
		return nil, fmt.Errorf("adaptive: margin %v outside (0, 1)", cfg.Margin)
	}
	z, err := fault.ZFor(cfg.Confidence)
	if err != nil {
		return nil, err
	}
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("adaptive: no outcome classes")
	}
	e := &Estimator{
		z:      z,
		margin: cfg.Margin,
		order:  append([]string(nil), cfg.Classes...),
		counts: make(map[string]uint64, len(cfg.Classes)),
	}
	for _, c := range cfg.Classes {
		e.counts[c] = 0
	}
	return e, nil
}

// Add feeds one completed run's outcome class. Classes outside the
// configured universe are counted toward n but tracked under their own
// label, so an unexpected label widens the decision rather than
// silently vanishing.
func (e *Estimator) Add(class string) {
	if _, ok := e.counts[class]; !ok {
		e.order = append(e.order, class)
	}
	e.counts[class]++
	e.n++
}

// N returns the number of runs fed so far.
func (e *Estimator) N() int { return int(e.n) } //nolint:gosec // run counts are small

// wilsonHalfWidth returns the half-width of the Wilson score interval
// for k successes out of n at quantile z.
func wilsonHalfWidth(k, n uint64, z float64) float64 {
	if n == 0 {
		return 1
	}
	nf := float64(n)
	ph := float64(k) / nf
	denom := 1 + z*z/nf
	return z * math.Sqrt(ph*(1-ph)/nf+z*z/(4*nf*nf)) / denom
}

// EffectiveMargin returns the widest class half-width at the current
// counts — the margin the cell has actually achieved. 1 before any run
// completes.
func (e *Estimator) EffectiveMargin() float64 {
	if e.n == 0 {
		return 1
	}
	worst := 0.0
	for _, c := range e.order {
		if hw := wilsonHalfWidth(e.counts[c], e.n, e.z); hw > worst {
			worst = hw
		}
	}
	return worst
}

// Decided reports whether every class proportion is pinned to the
// target margin at the target confidence.
func (e *Estimator) Decided() bool {
	return e.n > 0 && e.EffectiveMargin() <= e.margin
}

// Counts returns the per-class counts in first-seen-extended universe
// order, for reporting.
func (e *Estimator) Counts() (classes []string, counts []uint64) {
	classes = append([]string(nil), e.order...)
	counts = make([]uint64, len(e.order))
	for i, c := range e.order {
		counts[i] = e.counts[c]
	}
	return classes, counts
}

// Rule is the sequential stopping rule of one campaign cell, fed one
// outcome class at a time in the cell's deterministic order: the
// estimator is consulted exactly when the fed count reaches a boundary
// (every CheckEvery runs), and the rule fires once every class is
// pinned to the margin. Whoever feeds it owns the order — core.StopRule,
// which both campaign drivers drive, buffers completions into the cell's
// simulation order — and the rule owns everything else:
// cadence defaulting, boundary stepping, the decision and the one
// exception that a decision with nothing left to cancel is not a stop.
// Not safe for concurrent use.
type Rule struct {
	est      *Estimator
	cadence  int
	boundary int // fed count of the next evaluation
	stopped  bool
}

// NewRule validates the config and builds the rule of one cell.
func NewRule(cfg Config) (*Rule, error) {
	est, err := New(cfg)
	if err != nil {
		return nil, err
	}
	cadence := cfg.CheckEvery
	if cadence < 1 {
		cadence = DefaultCheckEvery
	}
	return &Rule{est: est, cadence: cadence, boundary: cadence}, nil
}

// Add feeds the next completed run's class and reports whether the rule
// fired on it. more says whether the cell has anything left beyond this
// run: a decision on the cell's last run has nothing to cancel, so the
// cell reads as run to budget with a known margin. Once the rule has
// fired it is frozen — Add ignores further runs, so N and Margin keep
// the run count and margin of the decision.
func (r *Rule) Add(class string, more bool) (stop bool) {
	if r.stopped {
		return false
	}
	r.est.Add(class)
	if r.est.N() < r.boundary {
		return false
	}
	if more && r.est.Decided() {
		r.stopped = true
		return true
	}
	r.boundary += r.cadence
	return false
}

// Boundary is the fed count at which the rule is next evaluated: runs at
// positions below it can no longer be cancelled by an earlier decision.
func (r *Rule) Boundary() int { return r.boundary }

// Stopped reports whether the rule has fired.
func (r *Rule) Stopped() bool { return r.stopped }

// N is the number of runs fed (the run count of the decision once
// stopped).
func (r *Rule) N() int { return r.est.N() }

// Margin is the widest class half-width over the runs fed — the margin
// the cell achieved, at the decision once stopped.
func (r *Rule) Margin() float64 { return r.est.EffectiveMargin() }
