package marss

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/bitarray"
	"repro/internal/core"
	"repro/internal/workload"
)

// pcStream records the committed-PC stream of a run.
type pcStream struct{ pcs []uint64 }

func (s *pcStream) Commit(pc, _, _ uint64) { s.pcs = append(s.pcs, pc) }

func qsortImage(t *testing.T) *asm.Image {
	t.Helper()
	w, err := workload.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	img, err := w.Image(asm.TargetCISC)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// midStreamCycle returns the first cycle at or after from at which the
// fetch queue is mid-stream when the front end is cut off: rename has
// consumed part of it this cycle (the head index is off zero) and
// micro-ops are still waiting behind it (the tail is not empty). Such
// cycles are about one in a hundred — rename usually keeps up with
// fetch — so a probe machine plays Run's cycle by hand to find one.
func midStreamCycle(t *testing.T, img *asm.Image, from uint64) uint64 {
	t.Helper()
	m := New(DefaultConfig(), img)
	for !m.finished {
		before := m.fetchQ.Len()
		m.commit()
		m.complete()
		m.issue()
		m.rename()
		if after := m.fetchQ.Len(); m.cycle >= from && after > 0 && after < before {
			return m.cycle
		}
		m.fetch()
		m.cycle++
	}
	t.Fatalf("no mid-stream fetch queue from cycle %d on", from)
	return 0
}

// finish runs m to the end under a commit probe.
func finish(t *testing.T, m *CPU) (core.RunResult, map[string]uint64, []uint64) {
	t.Helper()
	var s pcStream
	m.SetCommitProbe(&s)
	res := m.Run(1 << 62)
	if res.Status != core.RunCompleted {
		t.Fatalf("run ended with %v (%s)", res.Status, res.AssertMsg)
	}
	return res, m.Stats(), s.pcs
}

// TestCheckpointAcrossMidStreamFetchQueue cuts the front end off at a
// cycle where the fetch queue has a non-zero head and a non-empty tail,
// drains, checkpoints, and restores into a fresh machine and into a used
// one whose own queue, ROB and issue queue are busy. Both must finish
// exactly like the checkpointed machine running on uninterrupted:
// statistics, committed-PC stream and run result.
func TestCheckpointAcrossMidStreamFetchQueue(t *testing.T) {
	img := qsortImage(t)
	// A checkpoint does not carry a pending front-end stall (Restore
	// resumes fetching at once), so take one where none is pending: the
	// restored machines then owe the uninterrupted one nothing.
	var base *CPU
	for target := uint64(20_000); base == nil || base.fetchReady > base.cycle; target++ {
		target = midStreamCycle(t, img, target)
		base = New(DefaultConfig(), img)
		if _, finished, err := base.RunTo(target); err != nil || finished {
			t.Fatalf("RunTo(%d): finished=%v err=%v", target, finished, err)
		}
	}
	cp, err := base.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	wantRes, wantStats, wantPCs := finish(t, base)

	used := New(DefaultConfig(), img)
	used.Run(midStreamCycle(t, img, 50_000) + 1)
	if used.fetchQ.Len() == 0 || used.rob.Empty() || used.iq.Len() == 0 {
		t.Fatal("the used machine is idle; pick another cycle")
	}
	for name, m := range map[string]*CPU{"fresh": New(DefaultConfig(), img), "used": used} {
		if err := m.Restore(cp); err != nil {
			t.Fatal(err)
		}
		res, stats, pcs := finish(t, m)
		if !reflect.DeepEqual(res, wantRes) {
			t.Errorf("%s: result differs: %d cycles, %d instructions, exit %d; uninterrupted %d, %d, %d",
				name, res.Cycles, res.Committed, res.ExitCode, wantRes.Cycles, wantRes.Committed, wantRes.ExitCode)
		}
		for k, v := range wantStats {
			if stats[k] != v {
				t.Errorf("%s: stat %s = %d, uninterrupted %d", name, k, stats[k], v)
			}
		}
		if !reflect.DeepEqual(pcs, wantPCs) {
			t.Errorf("%s: committed-PC stream differs from the uninterrupted run (%d vs %d instructions)", name, len(pcs), len(wantPCs))
		}
	}
}

// TestWindowHandoffAcrossMidStreamFetchQueue closes a detail window at
// such a cycle: the window drains, the architectural state seeds a fresh
// machine, and that machine must commit the same instruction stream to
// the same output as the windowed machine running on. (Its caches and
// predictors start cold, so cycle counts and statistics are its own.)
func TestWindowHandoffAcrossMidStreamFetchQueue(t *testing.T) {
	img := qsortImage(t)
	const postMargin = 64
	closeAt := midStreamCycle(t, img, 20_000)

	base := New(DefaultConfig(), img)
	// A flip in the last physical FP register — on the free list, written
	// before it is ever read — applies at closeAt-postMargin and changes
	// nothing; the window then stops fetching exactly at closeAt.
	fp := base.Structures()["rf.fp"]
	fp.Arm(bitarray.Fault{Kind: bitarray.Transient, Entry: fp.Entries() - 1, Bit: 3, Start: closeAt - postMargin})
	base.WatchArrays([]*bitarray.Array{fp})
	base.SetEarlyStop(false)
	if res, exited := base.RunWindow(1<<62, postMargin); !exited {
		t.Fatalf("window did not exit: %v", res.Status)
	}
	if base.cycle <= closeAt {
		t.Fatalf("window exited at cycle %d, before it could close at %d", base.cycle, closeAt)
	}
	st, err := base.CaptureArch()
	if err != nil {
		t.Fatal(err)
	}
	wantRes, _, wantPCs := finish(t, base)

	seeded := New(DefaultConfig(), img)
	seeded.SeedArch(st)
	res, _, pcs := finish(t, seeded)
	if res.ExitCode != wantRes.ExitCode || res.Committed != wantRes.Committed || !bytes.Equal(res.Output, wantRes.Output) {
		t.Errorf("seeded run: exit %d, %d instructions; windowed machine: exit %d, %d instructions (outputs equal: %v)",
			res.ExitCode, res.Committed, wantRes.ExitCode, wantRes.Committed, bytes.Equal(res.Output, wantRes.Output))
	}
	if !reflect.DeepEqual(pcs, wantPCs) {
		t.Errorf("seeded run commits a different instruction stream (%d vs %d instructions)", len(pcs), len(wantPCs))
	}
}
