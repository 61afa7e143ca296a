package gem5_test

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/asm/progen"
	"repro/internal/core"
	"repro/internal/gem5"
)

// buildTestProgram links the core tests' fixed program for the target.
func buildTestProgram(t *testing.T, tgt asm.Target) *asm.Image {
	t.Helper()
	img, err := progen.Checksum().Build(tgt)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestCrossISAOutputsAgree(t *testing.T) {
	imgX := buildTestProgram(t, asm.TargetCISC)
	imgA := buildTestProgram(t, asm.TargetRISC)
	resX := gem5.New(gem5.DefaultConfig(gem5.ISAX86), imgX).Run(50_000_000)
	resA := gem5.New(gem5.DefaultConfig(gem5.ISAARM), imgA).Run(50_000_000)
	if resX.Status != core.RunCompleted || resA.Status != core.RunCompleted {
		t.Fatalf("status %v/%v", resX.Status, resA.Status)
	}
	if !bytes.Equal(resX.Output, resA.Output) {
		t.Fatal("cross-ISA outputs differ")
	}
	// The two ISAs must execute different instruction counts — the
	// cross-ISA differential signal.
	if resX.Committed == resA.Committed {
		t.Logf("note: instruction counts coincide at %d", resX.Committed)
	}
}

func TestGem5SplitLSQGeometry(t *testing.T) {
	img := buildTestProgram(t, asm.TargetCISC)
	cpu := gem5.New(gem5.DefaultConfig(gem5.ISAX86), img)
	st := cpu.Structures()
	if st["lsq.data"].Entries() != 16 {
		t.Fatalf("store queue data entries = %d, want 16 (split organization)", st["lsq.data"].Entries())
	}
	if st["rf.fp"].Entries() != 128 {
		t.Fatalf("fp phys regs = %d, want 128", st["rf.fp"].Entries())
	}
	if st["btb.valid"] == nil || st["btb.target"] == nil {
		t.Fatal("unified BTB arrays missing")
	}
	if st["btb.dir.valid"] != nil {
		t.Fatal("gem5 must not have the MARSS split BTBs")
	}
	if st["btb.valid"].Entries() != 2048 {
		t.Fatalf("btb entries %d, want 2048", st["btb.valid"].Entries())
	}
}

func TestConfigISAMismatchPanics(t *testing.T) {
	img := buildTestProgram(t, asm.TargetCISC)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on ISA mismatch")
		}
	}()
	gem5.New(gem5.DefaultConfig(gem5.ISAARM), img)
}
