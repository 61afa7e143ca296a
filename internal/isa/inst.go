package isa

import "errors"

// MaxUops is the largest number of micro-ops a single macro-instruction
// cracks into (the CISC CALL sequence).
const MaxUops = 6

// ErrIllegal is returned by decoders for undefined encodings. The
// simulators deliver it as an illegal-instruction exception, which is one
// of the main ways instruction-cache faults become program-visible.
var ErrIllegal = errors.New("isa: illegal instruction")

// ErrTruncated is returned when the fetch buffer does not contain a whole
// instruction.
var ErrTruncated = errors.New("isa: truncated instruction")

// BranchInfo carries the front-end-relevant control-flow metadata of a
// decoded instruction.
type BranchInfo struct {
	IsBranch   bool
	IsCond     bool
	IsCall     bool
	IsRet      bool
	IsIndirect bool
	// Target is the direct target; valid when IsBranch && !IsIndirect.
	Target uint64
}

// Inst is a decoded macro-instruction: its byte length, cracked micro-ops
// and branch metadata. Decoders fill a caller-provided Inst to keep the
// fetch path allocation-free.
type Inst struct {
	Len    uint8
	NUops  uint8
	Uops   [MaxUops]Uop
	Branch BranchInfo
}

// Reset clears the instruction for reuse. Add writes only below NUops,
// so the micro-ops past it are already zero and only the used ones are
// cleared (zeroing all six on every decode was a measurable share of the
// fetch stage).
func (in *Inst) Reset() {
	for i := range in.Uops[:in.NUops] {
		in.Uops[i] = Uop{}
	}
	in.Len, in.NUops, in.Branch = 0, 0, BranchInfo{}
}

// Add appends a micro-op.
func (in *Inst) Add(u Uop) {
	in.Uops[in.NUops] = u
	in.NUops++
}

// Decoder is implemented by each ISA front-end.
type Decoder interface {
	// Name returns the ISA name ("x86" or "arm" in reports, matching
	// the paper's terminology for the two instruction sets).
	Name() string
	// Decode decodes the instruction at pc from buf (whose first byte
	// is the byte at pc) into inst. It returns ErrIllegal for undefined
	// encodings and ErrTruncated when buf is too short.
	Decode(buf []byte, pc uint64, inst *Inst) error
	// MaxInstLen returns the longest possible instruction in bytes.
	MaxInstLen() int
	// MinInstLen returns the shortest possible instruction in bytes.
	MinInstLen() int
	// DivZero returns the ISA's divide-by-zero policy.
	DivZero() DivZeroPolicy
}

// Exception identifies an architectural exception raised during
// simulation. The kernel package decides severity (fatal signal vs
// recorded-and-continue), which in turn drives the fault classification.
type Exception uint8

const (
	// ExcNone means no exception.
	ExcNone Exception = iota
	// ExcIllegalInstr is an undefined encoding reaching decode.
	ExcIllegalInstr
	// ExcDivZero is a trapping integer division by zero (CISC only).
	ExcDivZero
	// ExcPageFault is an access to an unmapped address.
	ExcPageFault
	// ExcProtFault is a store to read-only text or a user access to the
	// kernel-reserved region.
	ExcProtFault
	// ExcAlignment is an unaligned access on the RISC ISA; the kernel
	// fixes it up and the program continues (a DUE source).
	ExcAlignment
	// ExcSyscallErr is a syscall that failed validation (e.g. a write
	// from a bad buffer); recorded, the program continues (a DUE source).
	ExcSyscallErr
	// ExcKernelPanic is an unrecoverable kernel condition (system crash).
	ExcKernelPanic
)

var excNames = [...]string{
	ExcNone: "none", ExcIllegalInstr: "illegal-instruction", ExcDivZero: "divide-error",
	ExcPageFault: "page-fault", ExcProtFault: "protection-fault",
	ExcAlignment: "alignment", ExcSyscallErr: "syscall-error",
	ExcKernelPanic: "kernel-panic",
}

// String returns the exception name used in injection logs.
func (e Exception) String() string {
	if int(e) < len(excNames) {
		return excNames[e]
	}
	return "unknown-exception"
}
