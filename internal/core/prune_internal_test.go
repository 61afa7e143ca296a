package core

import (
	"slices"
	"testing"
)

func TestSelectRung(t *testing.T) {
	rungs := []LadderRung{{Cycle: 100}, {Cycle: 200}, {Cycle: 300}}
	cases := []struct {
		minSite uint64
		want    int
	}{
		{50, -1},
		{100, -1}, // strict: a fault at the capture cycle boots from scratch
		{101, 0},
		{250, 1},
		{300, 1},
		{301, 2},
		{^uint64(0), 2},
	}
	for _, c := range cases {
		if got := selectRung(rungs, c.minSite); got != c.want {
			t.Errorf("selectRung(%d) = %d, want %d", c.minSite, got, c.want)
		}
	}
	if got := selectRung(nil, 500); got != -1 {
		t.Errorf("selectRung(nil) = %d", got)
	}
}

// Both guards draw with one sampler: up to n of the given mask indices
// (a cell's pruned masks, or the masks it simulates), evenly spaced, in
// order, deterministic.
func TestSampleVerify(t *testing.T) {
	pruned := []int{1, 2, 4, 5}        // prune-verify draws from the pruned masks
	sim := []int{0, 3, 6, 7, 8, 9, 11} // window-verify from the simulated ones
	cases := []struct {
		idx  []int
		n    int
		want []int
	}{
		{pruned, 0, nil},
		{pruned, -1, nil},
		{nil, 5, nil},
		{pruned, 10, pruned},
		{pruned, 4, pruned},
		{pruned, 2, []int{1, 4}},
		{pruned, 3, []int{1, 2, 4}},
		{sim, 7, sim},
		{sim, 3, []int{0, 6, 8}},
		{sim, 1, []int{0}},
	}
	for _, c := range cases {
		got := sampleEvenly(c.idx, c.n)
		if !slices.Equal(got, c.want) || (got == nil) != (c.want == nil) {
			t.Errorf("sampleEvenly(%v, %d) = %v, want %v", c.idx, c.n, got, c.want)
		}
		if again := sampleEvenly(c.idx, c.n); !slices.Equal(again, got) {
			t.Errorf("sampleEvenly(%v, %d) not deterministic: %v vs %v", c.idx, c.n, got, again)
		}
	}
}
