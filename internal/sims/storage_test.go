package sims

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/gem5"
	"repro/internal/marss"
	"repro/internal/ooo"
	"repro/internal/workload"
)

type memReleaser interface{ ReleaseMemory() }

func qsortFactory(t *testing.T, tool string) core.Factory {
	t.Helper()
	w, err := workload.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Factory(tool, w)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRebootAllocatesAFraction: with RAM and the caches' array storage
// recycled, booting a machine after one was released allocates under a
// quarter of the bytes a first boot does — a windowed campaign boots a
// machine per run that often lives a few thousand cycles.
func TestRebootAllocatesAFraction(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a share of what it is given")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tool := range Tools() {
		f := qsortFactory(t, tool)
		// Two collections empty every pool, victim caches included.
		runtime.GC()
		runtime.GC()
		boot := func() (core.Simulator, uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sim := f()
			runtime.ReadMemStats(&after)
			return sim, after.TotalAlloc - before.TotalAlloc
		}
		first, cold := boot()
		first.(memReleaser).ReleaseMemory()
		second, warm := boot()
		second.(memReleaser).ReleaseMemory()
		t.Logf("%s: first boot %d KB, boot after a release %d KB", tool, cold>>10, warm>>10)
		if warm*4 >= cold {
			t.Errorf("%s: boot after a release allocates %d bytes, first boot %d: want under 25%%", tool, warm, cold)
		}
	}
}

// TestCheckpointSizeIsWhatItAllocates: a rung's SizeBytes counts every
// component of the machine — within 10% of the bytes Checkpoint()
// allocates — and a rung stores what the machine holds, not what it
// could: at most 90 KB half way through qsort and sha on every tool
// (dense BTBs, local histories, TLBs and a full page table made it
// 150–163 KB on qsort).
func TestCheckpointSizeIsWhatItAllocates(t *testing.T) {
	const limit = 90 << 10
	for _, bench := range []string{"qsort", "sha"} {
		w, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, tool := range Tools() {
			f, err := Factory(tool, w)
			if err != nil {
				t.Fatal(err)
			}
			g, err := core.Golden(f)
			if err != nil {
				t.Fatal(err)
			}
			ck := f().(core.Checkpointer)
			if _, finished, err := ck.RunTo(g.Cycles / 2); err != nil || finished {
				t.Fatalf("%s/%s: RunTo: finished=%v err=%v", tool, bench, finished, err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st, err := ck.Checkpoint()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			cp := st.(*ooo.Checkpoint)
			alloc, size := int(after.TotalAlloc-before.TotalAlloc), cp.SizeBytes()
			t.Logf("%s/%s: SizeBytes %d B, allocated %d B (memory %d, caches %d, TLBs %d, BTBs %d, predictor %d, register files %d, ROB %d)",
				tool, bench, size, alloc, cp.Mem.SizeBytes(), cp.L1I.SizeBytes()+cp.L1D.SizeBytes()+cp.L2.SizeBytes(),
				cp.DTLB.SizeBytes()+cp.ITLB.SizeBytes(), btbBytes(cp), cp.Tour.SizeBytes(),
				cp.IntRF.SizeBytes()+cp.FPRF.SizeBytes(), cp.ROB.SizeBytes())
			if d := size - alloc; 10*d > alloc || -10*d > alloc {
				t.Errorf("%s/%s: SizeBytes %d, Checkpoint allocated %d: want within 10%%", tool, bench, size, alloc)
			}
			if size > limit {
				t.Errorf("%s/%s: a mid-run rung retains %d bytes, want at most %d", tool, bench, size, limit)
			}
		}
	}
}

func btbBytes(cp *ooo.Checkpoint) int {
	n := cp.BTBDir.SizeBytes()
	if cp.BTBInd != nil {
		n += cp.BTBInd.SizeBytes()
	}
	return n
}

// TestQsortRungStoresWhatTheCachesHold: the cache states of a mid-run
// qsort checkpoint cost under 15% of a dense copy of the arrays.
func TestQsortRungStoresWhatTheCachesHold(t *testing.T) {
	dense := func(cfgs ...cache.Config) (n int) {
		for _, c := range cfgs {
			lines := c.Size / c.LineSize
			n += 8*(lines+lines+lines+c.Size/8) + lines // tag, valid, LRU, data words; dirty bytes
		}
		return n
	}
	for _, tool := range []string{MaFINX86, GeFINX86} {
		f := qsortFactory(t, tool)
		g, err := core.Golden(f)
		if err != nil {
			t.Fatal(err)
		}
		sim := f()
		ck := sim.(core.Checkpointer)
		if _, finished, err := ck.RunTo(g.Cycles / 2); err != nil || finished {
			t.Fatalf("%s: RunTo: finished=%v err=%v", tool, finished, err)
		}
		cp, err := ck.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		state := cp.(*ooo.Checkpoint)
		sparse := state.L1I.SizeBytes() + state.L1D.SizeBytes() + state.L2.SizeBytes()
		var full int
		if tool == MaFINX86 {
			c := marss.DefaultConfig()
			full = dense(c.L1I, c.L1D, c.L2)
		} else {
			c := gem5.DefaultConfig(gem5.ISAX86)
			full = dense(c.L1I, c.L1D, c.L2)
		}
		t.Logf("%s: cache states %d KB, dense %d KB", tool, sparse>>10, full>>10)
		if sparse*100 >= full*15 {
			t.Errorf("%s: cache states of a qsort rung retain %d bytes, dense %d: want under 15%%", tool, sparse, full)
		}
	}
}
