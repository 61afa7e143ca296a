package marss_test

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/asm/progen"
	"repro/internal/bitarray"
	"repro/internal/core"
	"repro/internal/marss"
)

// buildTestProgram links the core tests' fixed program for x86.
func buildTestProgram(t *testing.T) *asm.Image {
	t.Helper()
	img, err := progen.Checksum().Build(asm.TargetCISC)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestStatsPlausible(t *testing.T) {
	img := buildTestProgram(t)
	cpu := marss.New(marss.DefaultConfig(), img)
	res := cpu.Run(50_000_000)
	if res.Status != core.RunCompleted {
		t.Fatalf("status %v (%s)", res.Status, res.AssertMsg)
	}
	s := cpu.Stats()
	if s["committed_loads"] == 0 || s["committed_stores"] == 0 {
		t.Fatalf("no memory traffic: %v", s)
	}
	if s["issued_loads"] < s["committed_loads"] {
		t.Fatalf("issued loads %d < committed %d", s["issued_loads"], s["committed_loads"])
	}
	if s["l1d_read_hits"]+s["l1d_read_misses"] == 0 {
		t.Fatal("no L1D reads")
	}
	if s["bp_lookups"] == 0 {
		t.Fatal("no branch predictions")
	}
	if s["cycles"] == 0 || s["committed_instrs"] == 0 {
		t.Fatal("no progress stats")
	}
	ipc := float64(s["committed_uops"]) / float64(s["cycles"])
	if ipc < 0.05 || ipc > 4.0 {
		t.Fatalf("implausible IPC %.3f", ipc)
	}
}

func TestStructureInventory(t *testing.T) {
	img := buildTestProgram(t)
	cpu := marss.New(marss.DefaultConfig(), img)
	st := cpu.Structures()
	want := []string{
		"rf.int", "rf.fp", "lsq.data", "iq", "ras",
		"l1d.data", "l1d.tag", "l1d.valid",
		"l1i.data", "l1i.tag", "l1i.valid",
		"l2.data", "l2.tag", "l2.valid",
		"dtlb.valid", "dtlb.tag", "dtlb.ppn",
		"itlb.valid", "itlb.tag", "itlb.ppn",
		"btb.dir.valid", "btb.dir.tag", "btb.dir.target",
		"btb.ind.valid", "btb.ind.tag", "btb.ind.target",
	}
	for _, n := range want {
		if st[n] == nil {
			t.Errorf("missing structure %q", n)
		}
	}
	// Geometry spot checks against Table II.
	if st["rf.int"].Entries() != 256 || st["rf.int"].BitsPerEntry() != 64 {
		t.Errorf("rf.int geometry %dx%d", st["rf.int"].Entries(), st["rf.int"].BitsPerEntry())
	}
	if st["lsq.data"].Entries() != 32 {
		t.Errorf("lsq entries %d, want 32 (unified)", st["lsq.data"].Entries())
	}
	if st["l1d.data"].Entries() != 512 || st["l1d.data"].BitsPerEntry() != 512 {
		t.Errorf("l1d.data geometry %dx%d", st["l1d.data"].Entries(), st["l1d.data"].BitsPerEntry())
	}
}

func TestEarlyStopOnDeadRegisterFault(t *testing.T) {
	img := buildTestProgram(t)
	cpu := marss.New(marss.DefaultConfig(), img)
	// Arm a transient fault into a physical register that is on the
	// free list (entry 250 is initially unallocated): the invalid-entry
	// early stop must fire.
	arr := cpu.Structures()["rf.int"]
	arr.Arm(bitarray.Fault{Kind: bitarray.Transient, Entry: 250, Bit: 5, Start: 100})
	cpu.WatchArrays([]*bitarray.Array{arr})
	res := cpu.Run(50_000_000)
	if res.Status != core.RunEarlyMasked {
		t.Fatalf("status %v, want early-masked", res.Status)
	}
}

func TestInOrderModelMatchesReference(t *testing.T) {
	// The Atom-like in-order pipeline must be functionally identical to
	// the OoO one — same outputs — while being slower in cycles.
	img := buildTestProgram(t)
	ooo := marss.New(marss.DefaultConfig(), img).Run(50_000_000)
	ino := marss.New(marss.InOrderConfig(), img).Run(50_000_000)
	if ooo.Status != core.RunCompleted || ino.Status != core.RunCompleted {
		t.Fatalf("status %v / %v", ooo.Status, ino.Status)
	}
	if !bytes.Equal(ooo.Output, ino.Output) {
		t.Fatal("in-order output diverges from OoO")
	}
	if ino.Cycles <= ooo.Cycles {
		t.Fatalf("in-order (%d cycles) not slower than OoO (%d)", ino.Cycles, ooo.Cycles)
	}
	t.Logf("OoO %d cycles vs in-order %d cycles (%.2fx)",
		ooo.Cycles, ino.Cycles, float64(ino.Cycles)/float64(ooo.Cycles))
}
