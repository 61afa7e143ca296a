package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// Summary is how every timing of the benchmark is reported: the median
// with the extremes and the sample count beside it.
type Summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := sorted(xs)
	return Summary{Median: median(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an ascending slice; the mean of the two middle values when
// the count is even.
func median(s []float64) float64 { return quantile(s, 0.5) }

func medianOf(xs []float64) float64 { return median(sorted(xs)) }

// quantile of an ascending slice at q in [0, 1], interpolated linearly
// between the two nearest ranks (so quantile(s, 0.5) is the median).
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// minBeyond is the choosing-metrics rule for tail percentiles: a pNN is
// reported only when at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs, and false when fewer than minBeyond samples lie strictly beyond
// its rank — too few for the tail value to mean anything.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// worseBy is the share of base by which got is worse, given the metric's
// direction; zero or negative means no worse.
func worseBy(base, got float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - got) / base
	}
	return (got - base) / base
}

// withinBound reports whether got is no worse than base by more than
// bound (a share of base).
func withinBound(base, got float64, better string, bound float64) bool {
	return worseBy(base, got, better) <= bound
}

// spreadFrac is (max-min)/median of a sample — the repetition spread.
func spreadFrac(xs []float64) float64 {
	s := summarize(xs)
	if s.N == 0 || s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Median
}

// digestRecords hashes a campaign's records independent of the order
// they are presented in: every record becomes one "key<TAB>json" line,
// the lines are sorted, and the digest covers the sorted bytes. Two
// commits (or two worker counts) simulated the same outcomes exactly
// when their digests agree.
func digestRecords(byKey map[string][]core.LogRecord) (string, error) {
	var lines []string
	for key, recs := range byKey {
		for i := range recs {
			b, err := json.Marshal(&recs[i])
			if err != nil {
				return "", fmt.Errorf("digest: %s mask %d: %w", key, recs[i].MaskID, err)
			}
			lines = append(lines, key+"\t"+string(b))
		}
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
