package core

import (
	"slices"

	"repro/internal/adaptive"
)

// StopRule is one campaign cell's sequential-confidence stopping rule,
// keyed by mask index: the one rule both drivers of a cell drive, the
// matrix scheduler and the distributed coordinator. It owns the
// adaptive.Rule built from the config, the cell's simulation order (the
// indices of the masks its plan simulates, ascending — journaled ones
// included, so positions are identical across resumes), the feeding
// discipline, which masks a stop cancels and the cell's AdaptiveInfo.
//
// The rule wants one class at a time in a fixed order; runs finish in
// any order. What makes early stopping deterministic across worker
// counts, resumes and fleets is the contiguous-prefix discipline kept
// here: completions are buffered per position and handed to the rule
// only as the contiguous done-prefix extends, so at each evaluation the
// rule sees exactly the classes of positions [0, boundary), never a
// raced superset. A decision on the last position is not a stop: there
// is nothing left to cancel. What each driver keeps is how it feeds in
// order — the scheduler gates dispatch at the rule's boundary, the
// coordinator commits merged rows in mask order.
//
// Not safe for concurrent use; a nil StopRule (the rule is off, or the
// cell simulates nothing) never stops.
type StopRule struct {
	rule       *adaptive.Rule
	confidence float64
	sim        []int // mask indices of the plan-simulated masks, ascending

	done    []bool   // per-position completion
	classOf []string // per-position outcome class, valid where done
	prefix  int      // positions [0, prefix) fed to the rule
}

// newStopRule builds the stopping rule of one cell over its
// plan-simulated mask indices sim, ascending. Nil when cfg arms no rule
// or sim is empty: there is nothing to decide.
func newStopRule(cfg CampaignConfig, sim []int) (*StopRule, error) {
	if cfg.StopMargin <= 0 || len(sim) == 0 {
		return nil, nil
	}
	rule, err := adaptive.NewRule(adaptive.Config{
		Margin:     cfg.StopMargin,
		Confidence: cfg.StopConfidence,
		CheckEvery: cfg.StopCheckEvery,
		Classes:    ClassStrings(),
	})
	if err != nil {
		return nil, err
	}
	return &StopRule{
		rule:       rule,
		confidence: cfg.StopConfidence,
		sim:        sim,
		done:       make([]bool, len(sim)),
		classOf:    make([]string, len(sim)),
	}, nil
}

// Stopped reports whether the cell's rule has fired.
func (s *StopRule) Stopped() bool { return s != nil && s.rule.Stopped() }

// dispatchable reports whether mask index m may be handed to a worker:
// its position must sit below the rule's next evaluation boundary (runs
// past the boundary would be wasted if the boundary decides) and the
// cell must not have stopped. Masks the plan does not simulate are
// never gated.
func (s *StopRule) dispatchable(m int) bool {
	if s == nil {
		return true
	}
	pos, ok := slices.BinarySearch(s.sim, m)
	return !s.rule.Stopped() && (!ok || pos < s.rule.Boundary())
}

// Cancelled reports whether mask index m was settled by the stop
// decision: every mask past the last run the rule counted, simulated or
// pruned alike.
func (s *StopRule) Cancelled(m int) bool {
	return s.Stopped() && m > s.sim[s.rule.N()-1]
}

// Note records the outcome class of the run at mask index m and feeds
// the rule the contiguous prefix it extends. Masks the plan does not
// simulate, repeats and anything after a stop are ignored.
func (s *StopRule) Note(m int, class string) {
	if s == nil || s.rule.Stopped() {
		return
	}
	pos, ok := slices.BinarySearch(s.sim, m)
	if !ok || s.done[pos] {
		return
	}
	s.done[pos] = true
	s.classOf[pos] = class
	for s.prefix < len(s.done) && s.done[s.prefix] {
		s.prefix++
		if s.rule.Add(s.classOf[s.prefix-1], s.prefix < len(s.sim)) {
			return
		}
	}
}

// Info is the cell's adaptive trailer: whether it stopped, the runs the
// rule counted out of those the plan simulates, and the margin it
// achieved. Nil for a nil rule.
func (s *StopRule) Info() *AdaptiveInfo {
	if s == nil {
		return nil
	}
	return &AdaptiveInfo{
		StoppedEarly:    s.rule.Stopped(),
		SimulatedRuns:   s.rule.N(),
		PlannedRuns:     len(s.sim),
		EffectiveMargin: s.rule.Margin(),
		Confidence:      s.confidence,
	}
}

// StopRules plans cfg's materialized cells as RunConfig does and returns
// each cell's fresh StopRule (nil for a cell that simulates nothing, and
// for every cell when cfg arms no rule): the rules a driver that
// settles the cells itself drives — the distributed coordinator. It
// reuses the golden artifacts BuildSpecs left in cache and simulates no
// injection.
func (c CampaignConfig) StopRules(specs []CampaignSpec, cache *GoldenCache) ([]*StopRule, error) {
	if c.StopMargin <= 0 {
		return make([]*StopRule, len(specs)), nil
	}
	p, err := planMatrix(c, specs, Attach{}, cache, nil)
	if err != nil {
		return nil, err
	}
	out := make([]*StopRule, len(specs))
	for i := range p.cells {
		out[i] = p.cells[i].stop
	}
	return out, nil
}

// ClassStrings converts the parser's class universe for the sequential
// estimator.
func ClassStrings() []string {
	out := make([]string, len(Classes))
	for i, c := range Classes {
		out[i] = string(c)
	}
	return out
}
