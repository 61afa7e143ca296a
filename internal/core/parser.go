package core

import "fmt"

// Class is a fault-effect class of §III.A.
type Class string

// The six classes of the paper's reliability reports.
const (
	ClassMasked  Class = "Masked"
	ClassSDC     Class = "SDC"
	ClassDUE     Class = "DUE"
	ClassTimeout Class = "Timeout"
	ClassCrash   Class = "Crash"
	ClassAssert  Class = "Assert"
)

// Classes lists the classes in the paper's presentation order.
var Classes = []Class{ClassMasked, ClassSDC, ClassDUE, ClassTimeout, ClassCrash, ClassAssert}

// Detail is the fine-grained sub-class the parser can optionally report:
// false/true DUE, deadlock/livelock, process/system/simulator crash.
type Detail string

// Detail values.
const (
	DetailNone      Detail = ""
	DetailFalseDUE  Detail = "false-DUE"
	DetailTrueDUE   Detail = "true-DUE"
	DetailDeadlock  Detail = "deadlock"
	DetailLivelock  Detail = "livelock"
	DetailProcCrash Detail = "process-crash"
	DetailSysCrash  Detail = "system-crash"
	DetailSimCrash  Detail = "simulator-crash"
)

// Parser maps raw log records to fault-effect classes. It is the
// reconfigurable third module of the injection framework: changing its
// options re-classifies existing logs without re-running any campaign.
type Parser struct {
	// GroupSimCrashWithAssert moves simulator crashes from the Crash
	// class into Assert, grouping faulty behaviours attributed to
	// simulator malfunction together (the regrouping example of
	// §III.B).
	GroupSimCrashWithAssert bool
	// CoarseMaskedOnly collapses every non-masked class into a single
	// "NonMasked" pseudo-class.
	CoarseMaskedOnly bool
}

// NonMasked is the pseudo-class used by the coarse-grained configuration.
const NonMasked Class = "NonMasked"

// ClassStopped is the pseudo-class of runs an adaptive campaign's
// stopping rule cancelled before simulation. It is deliberately absent
// from Classes: a stopped row carries provenance, not an outcome, and
// must never dilute the reported proportions.
const ClassStopped Class = "Stopped"

// Classify maps one log record to its class and detail.
func (p Parser) Classify(rec LogRecord) (Class, Detail) {
	cls, det := p.classify(rec)
	if p.CoarseMaskedOnly && cls != ClassMasked && cls != ClassStopped {
		return NonMasked, det
	}
	return cls, det
}

func (p Parser) classify(rec LogRecord) (Class, Detail) {
	switch rec.Status {
	case RunEarlyMasked.String(), RunPruned.String():
		return ClassMasked, DetailNone
	case RunStopped.String():
		return ClassStopped, DetailNone
	case RunCompleted.String():
		clean := len(rec.EventKinds) == 0
		switch {
		case clean && rec.OutputMatch:
			return ClassMasked, DetailNone
		case clean:
			return ClassSDC, DetailNone
		case rec.OutputMatch:
			return ClassDUE, DetailFalseDUE
		default:
			return ClassDUE, DetailTrueDUE
		}
	case RunCycleLimit.String():
		if rec.CommitStalled {
			return ClassTimeout, DetailDeadlock
		}
		return ClassTimeout, DetailLivelock
	case RunProcessCrash.String():
		return ClassCrash, DetailProcCrash
	case RunSystemCrash.String():
		return ClassCrash, DetailSysCrash
	case RunSimCrash.String():
		if p.GroupSimCrashWithAssert {
			return ClassAssert, DetailSimCrash
		}
		return ClassCrash, DetailSimCrash
	case RunAssert.String():
		return ClassAssert, DetailNone
	default:
		// Unknown statuses (from a newer log format) group with
		// simulator malfunction.
		return ClassAssert, DetailSimCrash
	}
}

// Breakdown is the classification histogram of one campaign.
type Breakdown struct {
	Total   int
	Counts  map[Class]int
	Details map[Detail]int
	// Weights and WeightSum carry the weight mass per class — the census
	// cycle mass each record stands for. A record without a weight
	// counts as weight 1, so for uniform campaigns WeightedPct
	// degenerates to Pct exactly.
	Weights   map[Class]float64
	WeightSum float64
	// NonUnit records that at least one run carried a weight other than
	// 1 — the log came from a weighted mask population.
	NonUnit bool
}

// ParseAll classifies a full campaign log. Early-stopped rows are
// counted under ClassStopped but excluded from Total: they were never
// decided, so they must not dilute the class proportions the margin
// was declared for.
func (p Parser) ParseAll(recs []LogRecord) Breakdown {
	b := Breakdown{
		Counts:  make(map[Class]int),
		Details: make(map[Detail]int),
		Weights: make(map[Class]float64),
	}
	for _, r := range recs {
		cls, det := p.Classify(r)
		b.Counts[cls]++
		if cls == ClassStopped {
			continue
		}
		b.Total++
		w := r.Weight
		if w <= 0 {
			w = 1
		} else if w != 1 {
			b.NonUnit = true
		}
		b.Weights[cls] += w
		b.WeightSum += w
		if det != DetailNone {
			b.Details[det]++
		}
	}
	return b
}

// Pct returns the percentage of runs in the class.
func (b Breakdown) Pct(c Class) float64 {
	if b.Total == 0 {
		return 0
	}
	return 100 * float64(b.Counts[c]) / float64(b.Total)
}

// WeightedPct returns the weight-normalized percentage of the class —
// its exact share of the uniform fault population under a census, whose
// records weigh their cycle mass. Equal to Pct when every record weighs
// 1.
func (b Breakdown) WeightedPct(c Class) float64 {
	if b.WeightSum == 0 {
		return 0
	}
	return 100 * b.Weights[c] / b.WeightSum
}

// WeightedVulnerability is the weighted analog of Vulnerability.
func (b Breakdown) WeightedVulnerability() float64 {
	return 100 - b.WeightedPct(ClassMasked)
}

// Weighted reports whether the log carried non-unit sampling weights,
// i.e. whether WeightedPct says anything Pct doesn't.
func (b Breakdown) Weighted() bool { return b.NonUnit }

// Vulnerability returns the sum of all non-masked percentages — the
// paper's vulnerability metric.
func (b Breakdown) Vulnerability() float64 {
	return 100 - b.Pct(ClassMasked)
}

// String renders the breakdown as one report row.
func (b Breakdown) String() string {
	s := ""
	for _, c := range Classes {
		s += fmt.Sprintf("%s=%5.2f%% ", c, b.Pct(c))
	}
	return fmt.Sprintf("%svuln=%5.2f%% (n=%d)", s, b.Vulnerability(), b.Total)
}
