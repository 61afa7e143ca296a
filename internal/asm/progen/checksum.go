package progen

import (
	"repro/internal/asm"
	"repro/internal/isa"
)

// Checksum returns the fixed program the core tests run on every tool: it
// exercises loops, a call, memory traffic, a data-dependent branch and FP
// math, and writes a 16-byte checksum to the output file.
func Checksum() *asm.Program {
	p := asm.NewProgram()
	p.Bss("buf", 512)
	p.Bss("out", 16)

	sum := p.Func("sumbuf") // r0 = sum of 64 longs at buf
	sum.MovSym(isa.R1, "buf")
	sum.MovImm(isa.R0, 0)
	sum.MovImm(isa.R2, 0)
	sum.Label("loop")
	sum.ShlI(isa.R3, isa.R2, 3)
	sum.Add(isa.R3, isa.R1, isa.R3)
	sum.Load(8, false, isa.R4, isa.R3, 0)
	sum.Add(isa.R0, isa.R0, isa.R4)
	sum.AddI(isa.R2, isa.R2, 1)
	sum.BrI(isa.CondLT, isa.R2, 64, "loop")
	sum.Ret()

	f := p.Func("main")
	// Fill buf[i] = i*i - 3i + 7 with a data-dependent branch.
	f.MovSym(isa.R1, "buf")
	f.MovImm(isa.R2, 0)
	f.Label("fill")
	f.Mul(isa.R3, isa.R2, isa.R2)
	f.MulI(isa.R4, isa.R2, 3)
	f.Sub(isa.R3, isa.R3, isa.R4)
	f.AddI(isa.R3, isa.R3, 7)
	f.AndI(isa.R5, isa.R2, 3)
	f.BrI(isa.CondNE, isa.R5, 0, "skip")
	f.Add(isa.R3, isa.R3, isa.R3) // every 4th element doubled
	f.Label("skip")
	f.ShlI(isa.R6, isa.R2, 3)
	f.Add(isa.R6, isa.R1, isa.R6)
	f.Store(8, isa.R3, isa.R6, 0)
	f.AddI(isa.R2, isa.R2, 1)
	f.BrI(isa.CondLT, isa.R2, 64, "fill")
	// Sum via a call.
	f.Call("sumbuf")
	f.MovSym(isa.R10, "out")
	f.Store(8, isa.R0, isa.R10, 0)
	// FP: out[8] = trunc((sum/7.0)*3.5).
	f.FCvtIF(isa.F0, isa.R0)
	f.FMovImm(isa.F1, 7.0)
	f.FDiv(isa.F2, isa.F0, isa.F1)
	f.FMovImm(isa.F3, 3.5)
	f.FMul(isa.F2, isa.F2, isa.F3)
	f.FCvtFI(isa.R3, isa.F2)
	f.Store(8, isa.R3, isa.R10, 8)
	// write(out, 16); exit(0)
	f.MovImm(isa.R0, 1)
	f.MovSym(isa.R1, "out")
	f.MovImm(isa.R2, 16)
	f.Syscall()
	f.MovImm(isa.R0, 2)
	f.MovImm(isa.R1, 0)
	f.Syscall()
	return p
}
