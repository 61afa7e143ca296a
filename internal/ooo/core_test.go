package ooo_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
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

// commit is one committed instruction as a commit probe sees it.
type commit struct{ pc, index, cycle uint64 }

// commitStream records the committed-instruction stream of a run.
type commitStream struct{ commits []commit }

func (s *commitStream) Commit(pc, index, cycle uint64) {
	s.commits = append(s.commits, commit{pc, index, cycle})
}

// commitsFrom returns the commits at or after cycle.
func commitsFrom(commits []commit, cycle uint64) []commit {
	return commits[sort.Search(len(commits), func(i int) bool { return commits[i].cycle >= cycle }):]
}

// pcs projects commits onto their PCs.
func pcs(commits []commit) []uint64 {
	out := make([]uint64, len(commits))
	for i, c := range commits {
		out[i] = c.pc
	}
	return out
}

func benchBooter(t *testing.T, tool, bench string) func() *ooo.CPU {
	t.Helper()
	w, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	return booter(t, tool, w)
}

// midStreamCycle returns the first cycle at or after from whose rename
// consumes part of the fetch queue (the head index moves off zero) and
// leaves micro-ops waiting behind it (the tail is not empty). Such
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

// checkpointAt runs a fresh machine to cycle and checkpoints it there.
func checkpointAt(t *testing.T, boot func() *ooo.CPU, cycle uint64) *ooo.Checkpoint {
	t.Helper()
	m := boot()
	defer m.ReleaseMemory()
	if _, finished, err := m.RunTo(cycle); err != nil || finished {
		t.Fatalf("RunTo(%d): finished=%v err=%v", cycle, finished, err)
	}
	cp, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp.(*ooo.Checkpoint)
}

// stallCheckpoint returns the checkpoint of the first cycle at or after
// from with a front-end stall pending — an instruction-cache or TLB miss,
// or the redirect penalty of a flush — taken on one probe machine.
func stallCheckpoint(t *testing.T, boot func() *ooo.CPU, from uint64) *ooo.Checkpoint {
	t.Helper()
	m := boot()
	defer m.ReleaseMemory()
	for c := from; ; c++ {
		if _, finished, err := m.RunTo(c); err != nil || finished {
			t.Fatalf("no front-end stall pending from cycle %d on (finished=%v err=%v)", from, finished, err)
		}
		cp, err := m.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if cp := cp.(*ooo.Checkpoint); cp.StallPending() {
			return cp
		}
	}
}

// run is everything a run to the end shows: its result, statistics,
// committed instructions and, when profiled, every access of every
// faultable array.
type run struct {
	res      core.RunResult
	stats    map[string]uint64
	commits  []commit
	profiles map[string]*bitarray.Profile
}

// finish runs m to the end under a commit probe, profiling every
// faultable array when profile is set.
func finish(t *testing.T, m *ooo.CPU, profile bool) run {
	t.Helper()
	var s commitStream
	m.SetCommitProbe(&s)
	arrs := m.Structures()
	if profile {
		for _, a := range arrs {
			a.StartProfile(m.CurrentCycle)
		}
	}
	res := m.Run(1 << 62)
	if res.Status != core.RunCompleted {
		t.Fatalf("run ended with %v (%s)", res.Status, res.AssertMsg)
	}
	r := run{res: res, stats: m.Stats(), commits: s.commits}
	if profile {
		r.profiles = make(map[string]*bitarray.Profile, len(arrs))
		for name, a := range arrs {
			r.profiles[name] = a.StopProfile()
		}
	}
	m.ReleaseMemory()
	return r
}

// sameFrom reports the first difference between what run got shows from
// cycle cut on and what want shows from cut on, or "" when there is none.
func sameFrom(want, got run, cut uint64) string {
	if !reflect.DeepEqual(got.res, want.res) {
		return fmt.Sprintf("result: %v at cycle %d after %d instructions, boot run %v at %d after %d",
			got.res.Status, got.res.Cycles, got.res.Committed, want.res.Status, want.res.Cycles, want.res.Committed)
	}
	for k, v := range want.stats {
		if got.stats[k] != v {
			return fmt.Sprintf("stat %s = %d, boot run %d", k, got.stats[k], v)
		}
	}
	if w := commitsFrom(want.commits, cut); !slices.Equal(got.commits, w) {
		return fmt.Sprintf("committed-instruction stream differs (%d vs %d commits from cycle %d)", len(got.commits), len(w), cut)
	}
	for name, wp := range want.profiles {
		if e, ok := sameEvents(wp, got.profiles[name], cut); !ok {
			return fmt.Sprintf("array %s entry %d: accesses differ from cycle %d on", name, e, cut)
		}
	}
	return ""
}

// sameEvents compares, entry by entry, the events of want at or after
// cut with every event of got.
func sameEvents(want, got *bitarray.Profile, cut uint64) (entry int, ok bool) {
	if got == nil || got.Entries != want.Entries {
		return -1, false
	}
	for e := 0; e < want.Entries; e++ {
		wi, gi := want.Events(e), got.Events(e)
		w, wok := wi.Next()
		for wok && w.Cycle < cut {
			w, wok = wi.Next()
		}
		for {
			g, gok := gi.Next()
			if wok != gok || w != g {
				return e, false
			}
			if !wok {
				break
			}
			w, wok = wi.Next()
		}
	}
	return 0, true
}

// TestCheckpointRestoresTheBootRun is the exactness pin of checkpoints:
// for every tool on qsort and sha, a machine restored at cycle c and run
// to the end is the boot run from c on — the same run result and
// statistics, the same committed instructions at the same cycles, and on
// every faultable array the same reads, writes and evictions of the same
// bits at the same cycles. The cuts include a cycle with a front-end
// stall pending, one with micro-ops left waiting in the fetch queue
// mid-stream, and the middle of the run.
func TestCheckpointRestoresTheBootRun(t *testing.T) {
	for _, tool := range tools {
		for _, bench := range []string{"qsort", "sha"} {
			t.Run(tool.name+"/"+bench, func(t *testing.T) {
				boot := benchBooter(t, tool.name, bench)
				want := finish(t, boot(), true)
				cuts := []struct {
					name string
					cp   *ooo.Checkpoint
				}{
					{"stall pending", stallCheckpoint(t, boot, want.res.Cycles/4)},
					{"queue mid-stream", checkpointAt(t, boot, midStreamCycle(t, boot(), 10_000)+1)},
					{"half way", checkpointAt(t, boot, want.res.Cycles/2)},
				}
				for _, cut := range cuts {
					if cut.name == "queue mid-stream" && cut.cp.Queued() == 0 {
						t.Fatalf("%s: cycle %d has an empty fetch queue", cut.name, cut.cp.Cycle)
					}
					m := boot()
					if err := m.Restore(cut.cp); err != nil {
						t.Fatal(err)
					}
					if diff := sameFrom(want, finish(t, m, true), cut.cp.Cycle); diff != "" {
						t.Errorf("restored at cycle %d (%s): %s", cut.cp.Cycle, cut.name, diff)
					}
				}
			})
		}
	}
}

// TestCheckpointAcrossMidStreamFetchQueue checkpoints at a cycle whose
// rename left micro-ops waiting in the fetch queue with its head index
// off zero, and restores into a fresh machine and into a used one whose
// own queue, ROB and issue queue are busy. Both must finish exactly like
// a straight run from boot: run result, statistics and committed
// instructions from the cut on.
func TestCheckpointAcrossMidStreamFetchQueue(t *testing.T) {
	for _, tool := range tools {
		t.Run(tool.name, func(t *testing.T) {
			boot := benchBooter(t, tool.name, tool.frontEndBench)
			want := finish(t, boot(), false)
			cp := checkpointAt(t, boot, midStreamCycle(t, boot(), 20_000)+1)
			if cp.Queued() == 0 {
				t.Fatalf("cycle %d has an empty fetch queue", cp.Cycle)
			}

			used := boot()
			used.Run(midStreamCycle(t, boot(), 50_000) + 1)
			if !used.Busy() {
				t.Fatal("the used machine is idle; pick another cycle")
			}
			for name, m := range map[string]*ooo.CPU{"fresh": boot(), "used": used} {
				if err := m.Restore(cp); err != nil {
					t.Fatal(err)
				}
				if diff := sameFrom(want, finish(t, m, false), cp.Cycle); diff != "" {
					t.Errorf("%s machine restored at cycle %d: %s", name, cp.Cycle, diff)
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
			want := finish(t, base, false)

			seeded := boot()
			seeded.SeedArch(st)
			got := finish(t, seeded, false)
			res, wantRes := got.res, want.res
			if res.ExitCode != wantRes.ExitCode || res.Committed != wantRes.Committed || !bytes.Equal(res.Output, wantRes.Output) {
				t.Errorf("seeded run: exit %d, %d instructions; windowed machine: exit %d, %d instructions (outputs equal: %v)",
					res.ExitCode, res.Committed, wantRes.ExitCode, wantRes.Committed, bytes.Equal(res.Output, wantRes.Output))
			}
			if !reflect.DeepEqual(pcs(got.commits), pcs(want.commits)) {
				t.Errorf("seeded run commits a different instruction stream (%d vs %d instructions)", len(got.commits), len(want.commits))
			}
		})
	}
}
