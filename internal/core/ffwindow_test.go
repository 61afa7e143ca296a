package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/asm"
	"repro/internal/handoff"
	"repro/internal/interp"
	"repro/internal/workload"
)

// captureWindower is a fake window-capable simulator that just records
// the architectural state windowEntry seeds it with.
type captureWindower struct {
	img *asm.Image
	st  *handoff.State
}

func (c *captureWindower) Image() *asm.Image          { return c.img }
func (c *captureWindower) SeedArch(st *handoff.State) { c.st = st }
func (c *captureWindower) RunWindow(limitCycles, postMargin uint64) (RunResult, bool) {
	return RunResult{}, false
}
func (c *captureWindower) CaptureArch() (*handoff.State, error) { return nil, nil }

// TestWindowEntryRungStateIdentity is the determinism proof of the
// functional fast-forward rung ladder, on every workload and both ISAs:
// windowEntry seeded through a rung must hand the simulator an
// architectural state byte-identical (handoff.Equal) to the one a
// from-boot fast-forward captures at the same step. The from-boot side
// runs on the empty ladder BootWindowEntries installs. Each path reports
// the steps it executed: the whole prefix from boot, only the stretch
// past the rung through the ladder (the rung's own prefix is the
// ladder's one-time cost, not the run's). Run twice per entry so both
// the rung-build and the rung-hit paths are compared.
func TestWindowEntryRungStateIdentity(t *testing.T) {
	for _, w := range workload.All() {
		for _, tgt := range []asm.Target{asm.TargetCISC, asm.TargetRISC} {
			w, tgt := w, tgt
			t.Run(w.Name+"/"+tgt.String(), func(t *testing.T) {
				t.Parallel()
				img, err := w.Image(tgt)
				if err != nil {
					t.Fatal(err)
				}
				total := interp.Run(img, uint64(1)<<62).Steps
				if total < 16 {
					t.Fatalf("workload too short to window: %d steps", total)
				}
				// A golden reference with Cycles == Committed makes the
				// entry cycle equal the entry instruction, so the test
				// pins exact step points.
				golden := GoldenInfo{Cycles: total, Committed: total}
				var hits, builds atomic.Uint64
				var bytes atomic.Int64
				ladder := newFFLadder(total/8, &hits, &builds, &bytes)

				for _, entry := range []uint64{total / 3, total / 2, 3 * total / 4} {
					for pass := 0; pass < 2; pass++ {
						boot := &captureWindower{img: img}
						seeded, steps := windowEntry(boot, golden, entry, &ffLadder{})
						if !seeded {
							t.Fatalf("entry %d: from-boot fast-forward did not seed", entry)
						}
						rung := &captureWindower{img: img}
						rseeded, rsteps := windowEntry(rung, golden, entry, ladder)
						if !rseeded {
							t.Fatalf("entry %d: rung fast-forward did not seed", entry)
						}
						if want := entry % ladder.quantum; steps != entry || rsteps != want {
							t.Fatalf("entry %d: executed %d steps from boot and %d via the rung at %d, want %d and %d",
								entry, steps, rsteps, entry-want, entry, want)
						}
						if err := handoff.Equal(boot.st, rung.st); err != nil {
							t.Fatalf("entry %d pass %d: rung-seeded state differs: %v", entry, pass, err)
						}
						if boot.st.Cycle != rung.st.Cycle {
							t.Fatalf("entry %d: seeded cycle %d from boot, %d via rung", entry, boot.st.Cycle, rung.st.Cycle)
						}
					}
				}
				if builds.Load() == 0 {
					t.Fatal("ladder built no rungs — the rung path was never exercised")
				}
				if hits.Load() == 0 {
					t.Fatal("ladder served no rung hits — the memoized path was never exercised")
				}
			})
		}
	}
}
