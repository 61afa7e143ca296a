package core_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/handoff"
)

// liarSim is readerSim whose injection runs (the only runs that watch an
// array) end with output the golden run never had: every fault, even
// one the liveness profile proves dead, simulates as SDC.
type liarSim struct{ *readerSim }

func (s liarSim) Run(limit uint64) core.RunResult {
	res := s.readerSim.Run(limit)
	if len(s.watch) > 0 {
		res.Output = append(res.Output, 0xFF)
	}
	return res
}

// A dead verdict the simulation contradicts fails the campaign with the
// prune-verify text: key, mask ID, the pruned action and reason, both
// classes and the simulated status.
func TestPruneVerifyMismatchNamesTheMask(t *testing.T) {
	factory := func() core.Simulator { return liarSim{newReaderSim().(*readerSim)} }
	for _, workers := range []int{1, 2} {
		_, err := runSpecs([]core.CampaignSpec{{
			Tool: "Reader", Benchmark: "toy", Structure: "r", Masks: readerMasks(), Factory: factory,
		}}, core.CampaignConfig{Workers: workers, Prune: true, PruneVerify: 100}, core.Attach{})
		const want = `core: prune-verify mismatch on Reader__toy__r mask 0 (dead, reason "overwritten"): pruned class Masked, simulated class SDC (status completed)`
		if err == nil || err.Error() != want {
			t.Fatalf("Workers %d: error %v, want %s", workers, err, want)
		}
	}
}

// exitSim is fakeSim with a detail window whose exit hands the functional
// tail a state past the instruction budget, so every windowed run ends
// as a timeout while the same mask run cycle-accurately to the end does
// not.
type exitSim struct{ *fakeSim }

func (s exitSim) Image() *asm.Image       { return nil }
func (s exitSim) SeedArch(*handoff.State) {}
func (s exitSim) RunWindow(limitCycles, postMargin uint64) (core.RunResult, bool) {
	return core.RunResult{}, true
}
func (s exitSim) CaptureArch() (*handoff.State, error) {
	return &handoff.State{Cycle: 50, Committed: 1 << 40}, nil
}

// A windowed record the cycle-accurate re-run contradicts fails the
// campaign with the window-verify text: key, mask ID, both classes and
// both statuses.
func TestWindowVerifyMismatchNamesTheMask(t *testing.T) {
	factory := func() core.Simulator { return exitSim{newFakeSim()} }
	for _, workers := range []int{1, 2} {
		_, err := runSpecs([]core.CampaignSpec{{
			Tool: "Fake", Benchmark: "b", Structure: "s", Masks: fakeMasks(6), Factory: factory,
		}}, core.CampaignConfig{
			Workers: workers, DetailWindow: true, WindowPre: 1000, WindowPost: 10, WindowVerify: 3,
		}, core.Attach{})
		const want = `core: window-verify mismatch on Fake__b__s mask 0: windowed class Timeout (status cycle-limit), cycle-accurate class Masked (status early-masked)`
		if err == nil || err.Error() != want {
			t.Fatalf("Workers %d: error %v, want %s", workers, err, want)
		}
	}
}
