package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/fault"
)

// TestStopRule pins the one stopping rule both drivers of a cell drive,
// keyed by mask index. The scheduler notes runs as workers finish them,
// below the rule's boundary and in any order; the coordinator notes
// every committed row in mask order, pruned rows included, and stops
// committing at the decision. Both must leave the rule in the same
// state: the same trailer and the same cancelled masks. At margin 0.25
// and 99% an all-Masked cell is decided at the first boundary of 10.
func TestStopRule(t *testing.T) {
	cfg := CampaignConfig{StopMargin: 0.25, StopConfidence: 0.99, StopCheckEvery: 10}
	masked := string(ClassMasked)
	every := func(lo, hi, step int) []int {
		var out []int
		for m := lo; m < hi; m += step {
			out = append(out, m)
		}
		return out
	}
	scheduler := func(s *StopRule, sim []int) {
		done := make(map[int]bool)
		for {
			var batch []int
			for _, m := range sim {
				if !done[m] && !s.Cancelled(m) && s.dispatchable(m) {
					batch = append(batch, m)
				}
			}
			if len(batch) == 0 {
				return
			}
			for j := len(batch) - 1; j >= 0; j-- { // finished last-first
				done[batch[j]] = true
				s.Note(batch[j], masked)
			}
		}
	}
	coordinator := func(s *StopRule, n int) {
		for m := 0; m < n && !s.Stopped(); m++ {
			s.Note(m, masked)
		}
	}

	cases := []struct {
		name string
		n    int   // masks in the cell
		sim  []int // its plan-simulated masks; the rest are pruned
		want AdaptiveInfo
		cut  int // first cancelled mask index; n when nothing is
	}{
		{
			// Decided on the cell's last simulated run with a pruned tail
			// behind it: nothing simulated is left, so no stop.
			name: "decision on the last planned run",
			n:    25, sim: every(0, 20, 2),
			want: AdaptiveInfo{SimulatedRuns: 10, PlannedRuns: 10},
			cut:  25,
		},
		{
			// Decided on mask 18 with simulated and pruned masks behind it:
			// everything past the deciding run is cancelled, pruned or not.
			name: "pruned tail after the deciding run",
			n:    45, sim: every(0, 40, 2),
			want: AdaptiveInfo{StoppedEarly: true, SimulatedRuns: 10, PlannedRuns: 20},
			cut:  19,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for driver, drive := range map[string]func(*StopRule){
				"scheduler":   func(s *StopRule) { scheduler(s, tc.sim) },
				"coordinator": func(s *StopRule) { coordinator(s, tc.n) },
			} {
				s, err := newStopRule(cfg, tc.sim)
				if err != nil {
					t.Fatal(err)
				}
				drive(s)
				got := *s.Info()
				want := tc.want
				want.EffectiveMargin, want.Confidence = got.EffectiveMargin, cfg.StopConfidence
				if got != want || got.EffectiveMargin >= cfg.StopMargin {
					t.Fatalf("%s: info %+v, want %+v under margin %v", driver, got, want, cfg.StopMargin)
				}
				for m := 0; m < tc.n; m++ {
					if s.Cancelled(m) != (m >= tc.cut) {
						t.Fatalf("%s: mask %d cancelled %v, want cancellation from mask %d", driver, m, s.Cancelled(m), tc.cut)
					}
				}
			}
		})
	}

	// Explicit masks may carry descending IDs: the stop cancels by mask
	// index, so the first ten masks simulate and the twenty after them
	// settle as stopped rows, whatever their IDs.
	t.Run("descending mask IDs cancel by index", func(t *testing.T) {
		var watched atomic.Int64
		factory := Factory(func() Simulator {
			return &planSim{arr: bitarray.New("r", 2, 64), watched: &watched}
		})
		const n = 30
		masks := make([]fault.Mask, n)
		for i := range masks {
			// Entry 1 is never read: every run is Masked.
			masks[i] = fault.Mask{ID: n - 1 - i, Sites: []fault.Site{{
				Structure: "r", Entry: 1, Bit: i, Model: fault.ModelTransient, Cycle: uint64(5 + 13*i),
			}}}
		}
		adaptive := cfg
		adaptive.Campaigns = []CampaignCell{{Tool: "plan", Benchmark: "b", Structure: "r", Masks: masks}}
		adaptive.Workers = 2
		res, err := RunConfig(adaptive, func(string, string) (Factory, error) { return factory, nil }, Attach{})
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range res[0].Records {
			if rec.MaskID != n-1-i || (rec.Status == RunStopped.String()) != (i >= 10) {
				t.Fatalf("record %d: mask %d status %q, want mask %d stopped iff index >= 10", i, rec.MaskID, rec.Status, n-1-i)
			}
		}
		if a := res[0].Adaptive; a == nil || !a.StoppedEarly || a.SimulatedRuns != 10 || a.PlannedRuns != n {
			t.Fatalf("adaptive info %+v, want a stop after 10 of %d runs", a, n)
		}
	})
}
