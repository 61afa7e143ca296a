package ooo_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/asm/progen"
	"repro/internal/bitarray"
	"repro/internal/core"
	"repro/internal/gem5"
	"repro/internal/interp"
	"repro/internal/marss"
	"repro/internal/ooo"
	"repro/internal/sims"
	"repro/internal/workload"
)

// tools is the paper's three configurations. Every test of the shared
// core runs over all of them: one cycle loop serves the three, and a
// trait branch only one of them takes is still that loop's code.
var tools = []struct {
	name string
	// The register-file sweep's entry and bit strides.
	entryStride, bitStride int
	// frontEndBench is the benchmark of the front-end tests. They need
	// cycles where rename leaves part of the fetch queue behind, from
	// cycle 50,000 on; the ARM core's qsort has none after 19,366 (one
	// micro-op per instruction, and the sort phase never stalls rename),
	// its sha has them throughout.
	frontEndBench string
}{
	{sims.MaFINX86, 7, 13, "qsort"},
	{sims.GeFINX86, 11, 17, "qsort"},
	{sims.GeFINARM, 11, 17, "sha"},
}

// checksum is the small fixed program of the tests that need no
// particular front-end behaviour.
var checksum = workload.Workload{Name: "checksum", Build: progen.Checksum}

// booter returns the tool's constructor for the workload.
func booter(t *testing.T, tool string, w workload.Workload) func() *ooo.CPU {
	t.Helper()
	f, err := sims.Factory(tool, w)
	if err != nil {
		t.Fatal(err)
	}
	return func() *ooo.CPU { return f().(*ooo.CPU) }
}

// TestTraitTablesAreThePapersDifferences pins the two trait tables to the
// paper: MaFIN and GeFIN differ in exactly the five documented design
// differences, each with the documented value, and GeFIN's two ISAs
// share one table — the machines the factories boot carry these values,
// not just the packages. The Remark tests in internal/sims are the proof
// that each branch does what its Remark says.
func TestTraitTablesAreThePapersDifferences(t *testing.T) {
	// MaFIN has each documented trait, GeFIN lacks it.
	documented := map[string]string{
		"UnifiedLSQ":         "Remark 1",
		"SpeculativeLoads":   "Remark 3",
		"HypervisorSyscalls": "Remarks 3, 6",
		"ChoiceByAddress":    "Remark 6",
		"DenseAsserts":       "Remark 8",
	}
	m, g := reflect.ValueOf(marss.Traits()), reflect.ValueOf(gem5.Traits())
	if m.NumField() != len(documented) {
		t.Errorf("ooo.Traits has %d fields, the paper documents %d differences", m.NumField(), len(documented))
	}
	for i := 0; i < m.NumField(); i++ {
		name := m.Type().Field(i).Name
		if remark, ok := documented[name]; !ok {
			t.Errorf("trait %s is not one of the documented differences", name)
		} else if !m.Field(i).Bool() || g.Field(i).Bool() {
			t.Errorf("trait %s (%s): MaFIN %v, GeFIN %v; the paper says true, false", name, remark, m.Field(i).Bool(), g.Field(i).Bool())
		}
	}
	for tool, want := range map[string]ooo.Traits{sims.MaFINX86: marss.Traits(), sims.GeFINX86: gem5.Traits(), sims.GeFINARM: gem5.Traits()} {
		if got := booter(t, tool, checksum)().Traits(); got != want {
			t.Errorf("%s boots with traits %+v, its package documents %+v", tool, got, want)
		}
	}
}

func TestFaultFreeMatchesReferenceModel(t *testing.T) {
	for _, tool := range tools {
		t.Run(tool.name, func(t *testing.T) {
			cpu := booter(t, tool.name, checksum)()
			ref := interp.Run(cpu.Image(), 10_000_000)
			if ref.Outcome != interp.Completed {
				t.Fatalf("reference: %v", ref.Outcome)
			}
			res := cpu.Run(50_000_000)
			if res.Status != core.RunCompleted {
				t.Fatalf("%v (%s), %d cycles, %d instrs", res.Status, res.AssertMsg, res.Cycles, res.Committed)
			}
			if !bytes.Equal(res.Output, ref.Output) {
				t.Fatalf("output mismatch:\n core: %x\n ref:  %x", res.Output, ref.Output)
			}
			if res.ExitCode != 0 {
				t.Fatalf("exit code %d", res.ExitCode)
			}
			if len(res.Events) != 0 {
				t.Fatalf("events: %v", res.Events)
			}
			if res.Committed == 0 || res.Committed != ref.Steps {
				t.Fatalf("committed %d instrs, reference %d", res.Committed, ref.Steps)
			}
		})
	}
}

func TestRunIsDeterministic(t *testing.T) {
	for _, tool := range tools {
		t.Run(tool.name, func(t *testing.T) {
			boot := booter(t, tool.name, checksum)
			a := boot().Run(50_000_000)
			b := boot().Run(50_000_000)
			if a.Cycles != b.Cycles || a.Committed != b.Committed || !bytes.Equal(a.Output, b.Output) {
				t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Cycles, a.Committed, b.Cycles, b.Committed)
			}
		})
	}
}

// TestRegisterFileFaultSweep injects a handful of register-file faults;
// every run must land in a defined terminal state and some must be
// masked.
func TestRegisterFileFaultSweep(t *testing.T) {
	for _, tool := range tools {
		t.Run(tool.name, func(t *testing.T) {
			boot := booter(t, tool.name, checksum)
			golden := boot().Run(50_000_000)
			if golden.Status != core.RunCompleted {
				t.Fatal("golden run failed")
			}
			outcomes := map[core.RunStatus]int{}
			for i := 0; i < 40; i++ {
				cpu := boot()
				arr := cpu.Structures()["rf.int"]
				arr.Arm(bitarray.Fault{
					Kind:  bitarray.Transient,
					Entry: (i * tool.entryStride) % arr.Entries(),
					Bit:   (i * tool.bitStride) % 64,
					Start: uint64(i) * golden.Cycles / 40,
				})
				cpu.WatchArrays([]*bitarray.Array{arr})
				res := cpu.Run(golden.Cycles * 3)
				outcomes[res.Status]++
				if res.Status == core.RunCompleted && bytes.Equal(res.Output, golden.Output) && len(res.Events) > 0 {
					t.Errorf("run %d: completed with events but clean output: %v", i, res.Events)
				}
			}
			if outcomes[core.RunEarlyMasked]+outcomes[core.RunCompleted] == 0 {
				t.Fatalf("no masked/completed outcomes at all: %v", outcomes)
			}
			t.Logf("outcomes: %v", outcomes)
		})
	}
}

// pcStream records the committed-PC stream of a run.
type pcStream struct{ pcs []uint64 }

func (s *pcStream) Commit(pc, _, _ uint64) { s.pcs = append(s.pcs, pc) }

func benchBooter(t *testing.T, tool, bench string) func() *ooo.CPU {
	t.Helper()
	w, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	return booter(t, tool, w)
}

// midStreamCycle returns the first cycle at or after from at which the
// fetch queue is mid-stream when the front end is cut off: rename has
// consumed part of it this cycle (the head index is off zero) and
// micro-ops are still waiting behind it (the tail is not empty). Such
// cycles are about one in a hundred — rename usually keeps up with
// fetch — so a probe machine plays Run's cycle by hand to find one.
func midStreamCycle(t *testing.T, m *ooo.CPU, from uint64) uint64 {
	t.Helper()
	for !m.Finished() {
		before := m.FetchQueueLen()
		m.StepBackEnd()
		if after := m.FetchQueueLen(); m.CurrentCycle() >= from && after > 0 && after < before {
			return m.CurrentCycle()
		}
		m.StepFetch()
	}
	t.Fatalf("no mid-stream fetch queue from cycle %d on", from)
	return 0
}

// finish runs m to the end under a commit probe.
func finish(t *testing.T, m *ooo.CPU) (core.RunResult, map[string]uint64, []uint64) {
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
	for _, tool := range tools {
		t.Run(tool.name, func(t *testing.T) {
			boot := benchBooter(t, tool.name, tool.frontEndBench)
			// A checkpoint does not carry a pending front-end stall (Restore
			// resumes fetching at once), so take one where none is pending: the
			// restored machines then owe the uninterrupted one nothing.
			var base *ooo.CPU
			for target := uint64(20_000); base == nil || base.FetchStalled(); target++ {
				target = midStreamCycle(t, boot(), target)
				base = boot()
				if _, finished, err := base.RunTo(target); err != nil || finished {
					t.Fatalf("RunTo(%d): finished=%v err=%v", target, finished, err)
				}
			}
			cp, err := base.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			wantRes, wantStats, wantPCs := finish(t, base)

			used := boot()
			used.Run(midStreamCycle(t, boot(), 50_000) + 1)
			if !used.Busy() {
				t.Fatal("the used machine is idle; pick another cycle")
			}
			for name, m := range map[string]*ooo.CPU{"fresh": boot(), "used": used} {
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
		})
	}
}

// TestWindowHandoffAcrossMidStreamFetchQueue closes a detail window at
// such a cycle: the window drains, the architectural state seeds a fresh
// machine, and that machine must commit the same instruction stream to
// the same output as the windowed machine running on. (Its caches and
// predictors start cold, so cycle counts and statistics are its own.)
func TestWindowHandoffAcrossMidStreamFetchQueue(t *testing.T) {
	for _, tool := range tools {
		t.Run(tool.name, func(t *testing.T) {
			boot := benchBooter(t, tool.name, tool.frontEndBench)
			const postMargin = 64
			closeAt := midStreamCycle(t, boot(), 20_000)

			base := boot()
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
			if base.CurrentCycle() <= closeAt {
				t.Fatalf("window exited at cycle %d, before it could close at %d", base.CurrentCycle(), closeAt)
			}
			st, err := base.CaptureArch()
			if err != nil {
				t.Fatal(err)
			}
			wantRes, _, wantPCs := finish(t, base)

			seeded := boot()
			seeded.SeedArch(st)
			res, _, pcs := finish(t, seeded)
			if res.ExitCode != wantRes.ExitCode || res.Committed != wantRes.Committed || !bytes.Equal(res.Output, wantRes.Output) {
				t.Errorf("seeded run: exit %d, %d instructions; windowed machine: exit %d, %d instructions (outputs equal: %v)",
					res.ExitCode, res.Committed, wantRes.ExitCode, wantRes.Committed, bytes.Equal(res.Output, wantRes.Output))
			}
			if !reflect.DeepEqual(pcs, wantPCs) {
				t.Errorf("seeded run commits a different instruction stream (%d vs %d instructions)", len(pcs), len(wantPCs))
			}
		})
	}
}
