package core

import "repro/internal/adaptive"

// cellStopper feeds one campaign cell's stopping rule from inside the
// matrix scheduler. The rule itself (adaptive.Rule) wants one class at
// a time in a fixed order; workers finish in any order. What makes
// early stopping deterministic across worker counts and resumes is the
// contiguous-prefix discipline enforced here: completions are buffered
// per position in the cell's fixed simulation order (plan-simulated
// masks in mask-ID order) and handed to the rule only as the contiguous
// done-prefix extends, and dispatch is gated at the rule's next
// evaluation boundary. A resume journal with holes — positions that
// were in flight at the kill — therefore re-derives the identical stop
// point: the rule sees exactly the classes of positions [0, boundary)
// at each evaluation, never a raced superset.
//
// The stopper is not safe for concurrent use; the scheduler serializes
// noteCompleted under its dispatch mutex.
type cellStopper struct {
	rule     *adaptive.Rule
	simOrder []int       // mask IDs of plan-simulated masks, ascending
	posOf    map[int]int // mask ID -> position in simOrder

	done    []bool   // per-position completion
	classOf []string // per-position outcome class, valid where done
	prefix  int      // positions [0, prefix) fed to the rule
}

// newCellStopper builds the stopper of one cell over its simulation
// order. Returns nil when there is nothing to decide (no simulated
// masks).
func newCellStopper(rule *adaptive.Rule, simOrder []int) *cellStopper {
	if len(simOrder) == 0 {
		return nil
	}
	posOf := make(map[int]int, len(simOrder))
	for i, id := range simOrder {
		posOf[id] = i
	}
	return &cellStopper{
		rule:     rule,
		simOrder: simOrder,
		posOf:    posOf,
		done:     make([]bool, len(simOrder)),
		classOf:  make([]string, len(simOrder)),
	}
}

// stopped reports whether the cell's rule has fired.
func (s *cellStopper) stopped() bool { return s != nil && s.rule.Stopped() }

// dispatchable reports whether the mask may be handed to a worker:
// its position must sit below the rule's next evaluation boundary (runs
// past the boundary would be wasted if the boundary decides) and the
// cell must not have stopped.
func (s *cellStopper) dispatchable(maskID int) bool {
	if s == nil {
		return true
	}
	if s.rule.Stopped() {
		return false
	}
	pos, ok := s.posOf[maskID]
	return !ok || pos < s.rule.Boundary()
}

// cancelled reports whether the mask was settled by the stop decision:
// every mask above the last run the rule counted.
func (s *cellStopper) cancelled(maskID int) bool {
	return s.stopped() && maskID > s.simOrder[s.rule.N()-1]
}

// noteCompleted records the outcome class of the mask at one simulation
// position and feeds the rule the contiguous prefix it extends.
func (s *cellStopper) noteCompleted(maskID int, class string) {
	if s == nil || s.rule.Stopped() {
		return
	}
	pos, ok := s.posOf[maskID]
	if !ok || s.done[pos] {
		return
	}
	s.done[pos] = true
	s.classOf[pos] = class
	for s.prefix < len(s.done) && s.done[s.prefix] {
		s.prefix++
		if s.rule.Add(s.classOf[s.prefix-1], s.prefix < len(s.simOrder)) {
			return
		}
	}
}

// ClassStrings converts the parser's class universe for the sequential
// estimator — shared by the matrix scheduler and the distributed
// coordinator so both feed identically-configured stopping rules.
func ClassStrings() []string {
	out := make([]string, len(Classes))
	for i, c := range Classes {
		out[i] = string(c)
	}
	return out
}
