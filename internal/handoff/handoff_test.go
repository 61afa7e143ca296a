package handoff_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/handoff"
	"repro/internal/interp"
	"repro/internal/sims"
	"repro/internal/workload"
)

// windower is the capability surface the handoff tests exercise on the
// cycle-accurate cores (mirrors core.Windower plus RunTo from
// core.Checkpointer).
type windower interface {
	core.Windower
	RunTo(target uint64) (uint64, bool, error)
	Run(limit uint64) core.RunResult
}

// drainedCapture runs sim to the first cycle at or after from at which
// nothing speculative is in flight and captures its architectural state
// there. A core is drained for the few cycles after a flush — a
// mispredicted branch or a syscall — while fetch waits out the redirect
// penalty; CaptureArch refuses every other cycle. It reports finished
// when the program ends first.
func drainedCapture(t *testing.T, sim windower, from uint64) (st *handoff.State, finished bool) {
	t.Helper()
	for c := from; ; c++ {
		if _, finished, err := sim.RunTo(c); err != nil {
			t.Fatal(err)
		} else if finished {
			return nil, true
		}
		if st, err := sim.CaptureArch(); err == nil {
			return st, false
		}
	}
}

// TestCaptureMatchesInterp is the any-point equality cross-check of the
// handoff layer: capture each cycle-accurate core's architectural state
// at a drained point mid-run and demand bit-exact equality with a
// functional machine run to the same committed-instruction count — for
// every tool and every workload, at two different handoff points. This
// is the soundness base of detail-window execution: if the two tiers
// disagree architecturally at an arbitrary drained point, handing a run
// between them would silently change its outcome.
func TestCaptureMatchesInterp(t *testing.T) {
	for _, tool := range sims.Tools() {
		for _, w := range workload.All() {
			t.Run(tool+"/"+w.Name, func(t *testing.T) {
				f, err := sims.Factory(tool, w)
				if err != nil {
					t.Fatal(err)
				}
				captured := 0
				for _, target := range []uint64{1500, 6000} {
					sim, ok := f().(windower)
					if !ok {
						t.Fatalf("%s simulator is not window-capable", tool)
					}
					st, finished := drainedCapture(t, sim, target)
					if finished {
						// Program shorter than the handoff point; the other
						// target still covers the workload.
						continue
					}
					captured++
					if st.Committed == 0 {
						t.Fatalf("capture at cycle target %d committed nothing", target)
					}
					fm := interp.New(sim.Image())
					if r := fm.Continue(st.Committed); r.Outcome != interp.StepLimit {
						t.Fatalf("functional run ended early at %d steps: %v", st.Committed, r.Outcome)
					}
					if err := handoff.Equal(fm.Capture(), st); err != nil {
						t.Fatalf("cycle target %d (committed %d): %v", target, st.Committed, err)
					}
				}
				if captured == 0 {
					t.Fatal("the program ended before either handoff point")
				}
			})
		}
	}
}

// TestSeedArchRoundTrip checks the opposite direction of the handoff:
// state captured on the functional tier, seeded into a freshly booted
// cycle-accurate machine, must capture back bit-identically — and the
// seeded machine must finish the program with exactly the output and
// exit state the functional tier produces.
func TestSeedArchRoundTrip(t *testing.T) {
	for _, tool := range sims.Tools() {
		t.Run(tool, func(t *testing.T) {
			w, err := workload.ByName("qsort")
			if err != nil {
				t.Fatal(err)
			}
			f, err := sims.Factory(tool, w)
			if err != nil {
				t.Fatal(err)
			}
			sim, ok := f().(windower)
			if !ok {
				t.Fatalf("%s simulator is not window-capable", tool)
			}
			ref := interp.New(sim.Image())
			full := ref.Continue(1 << 62)
			if full.Outcome != interp.Completed {
				t.Fatalf("functional reference did not complete: %v", full.Outcome)
			}

			fm := interp.New(sim.Image())
			if r := fm.Continue(3000); r.Outcome != interp.StepLimit {
				t.Fatalf("functional prefix ended early: %v", r.Outcome)
			}
			st := fm.Capture()
			st.Cycle = 12345 // an arbitrary cycle-domain entry point
			sim.SeedArch(st)
			got, err := sim.CaptureArch()
			if err != nil {
				t.Fatal(err)
			}
			if err := handoff.Equal(st, got); err != nil {
				t.Fatalf("round trip: %v", err)
			}
			if got.Cycle != st.Cycle {
				t.Fatalf("seeded machine starts at cycle %d, want %d", got.Cycle, st.Cycle)
			}

			res := sim.Run(1 << 62)
			if res.Status != core.RunCompleted || res.ExitCode != 0 {
				t.Fatalf("seeded run: %v exit %d", res.Status, res.ExitCode)
			}
			if string(res.Output) != string(full.Output) {
				t.Fatalf("seeded run output differs from the functional reference (%d vs %d bytes)",
					len(res.Output), len(full.Output))
			}
			if res.Committed != full.Steps {
				t.Fatalf("seeded run committed %d instructions, functional reference %d", res.Committed, full.Steps)
			}
		})
	}
}
