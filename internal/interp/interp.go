// Package interp is the functional reference model: it executes a linked
// program image instruction-by-instruction with architectural semantics
// only (no pipeline, no caches). The test suites use it to validate the
// assembler back-ends and the workloads, and to cross-check that both
// microarchitectural simulators compute exactly the same program outputs
// in fault-free runs.
package interp

import (
	"encoding/binary"
	"math"

	"repro/internal/asm"
	"repro/internal/handoff"
	"repro/internal/isa"
	"repro/internal/isa/cisc"
	"repro/internal/isa/risc"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// Outcome describes how a functional run ended.
type Outcome uint8

const (
	// Completed means the program called exit.
	Completed Outcome = iota
	// ProcessCrash means a fatal exception killed the program.
	ProcessCrash
	// SystemCrash means the kernel panicked.
	SystemCrash
	// StepLimit means the run exceeded the instruction budget.
	StepLimit
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Completed:
		return "completed"
	case ProcessCrash:
		return "process-crash"
	case SystemCrash:
		return "system-crash"
	case StepLimit:
		return "step-limit"
	default:
		return "unknown"
	}
}

// Result is the outcome of a functional run.
type Result struct {
	Outcome  Outcome
	ExitCode uint64
	Output   []byte
	Steps    uint64 // macro-instructions executed
	Uops     uint64 // micro-ops executed
	// FatalExc is the exception that ended a crashed run.
	FatalExc isa.Exception
	// Events are the recoverable exceptions recorded by the kernel.
	Events []kernel.Event
}

// Machine is a functional machine instance. It is resumable: run stops
// at instruction boundaries, so a machine can execute in slices
// (Continue), be captured as an architectural handoff.State, or be
// seeded from one taken on a cycle-accurate core.
type Machine struct {
	img  *asm.Image
	dec  isa.Decoder
	mem  *mem.Memory
	kern kernel.Kernel

	pc   uint64
	regs [isa.NumIntRegs]uint64
	fp   [isa.NumFPRegs]float64

	// steps and uops count macro-instructions and micro-ops executed
	// since machine birth; Seed initializes steps to the committed count
	// of the source state so step stamps keep a single time base.
	steps uint64
	uops  uint64

	// Dispatch state hoisted out of the per-step loop: the fetch buffer
	// (so Continue slices don't churn allocations), the decoder's
	// alignment policy, the shared per-image predecode table, and a
	// scratch Inst for slow-path decodes.
	buf        []byte
	alignCheck bool
	cache      *decodeCache
	scratch    isa.Inst

	// Per-machine decode-cache counters, flushed to the package totals
	// when a run slice returns so the hot loop stays contention-free.
	decHits, decMisses uint64
}

// newMachine builds the decoder/memory shell shared by New and Seed.
func newMachine(img *asm.Image) *Machine {
	m := &Machine{img: img, mem: mem.New()}
	switch img.ISA {
	case "arm":
		m.dec = risc.Decoder{}
	default:
		m.dec = cisc.Decoder{}
	}
	m.mem.SetTextEnd(img.TextBase + uint64(len(img.Text)))
	m.buf = make([]byte, m.dec.MaxInstLen())
	m.alignCheck = m.dec.Name() == "arm"
	m.cache = cacheFor(img)
	return m
}

// DisableDecodeCache forces every dispatch through the slow
// Fetch+Decode path. The equivalence test, the predecode fuzz target
// and the dispatch benchmark use it to produce the reference behaviour
// the cached path must match byte for byte.
func (m *Machine) DisableDecodeCache() { m.cache = nil }

// New builds a functional machine for the image.
func New(img *asm.Image) *Machine {
	m := newMachine(img)
	m.mem.Load(img.TextBase, img.Text)
	m.mem.Load(img.DataBase, img.Data)
	m.pc = img.Entry
	m.regs[isa.SP] = mem.StackTop
	return m
}

// Seed builds a functional machine resuming from an architectural state
// captured on another tier. The image must be the one the state was
// produced from (it supplies the decoder and the text bounds; the text
// bytes themselves arrive with the memory snapshot).
func Seed(img *asm.Image, st *handoff.State) *Machine {
	m := newMachine(img)
	m.mem.RestorePaged(st.Mem)
	m.kern = st.Kern.Clone()
	m.pc = st.PC
	copy(m.regs[:], st.IntRegs[:])
	for i := range m.fp {
		m.fp[i] = math.Float64frombits(st.FPRegs[i])
	}
	m.steps = st.Committed
	return m
}

// Capture snapshots the machine as an architectural handoff state.
func (m *Machine) Capture() *handoff.State {
	st := &handoff.State{
		PC:        m.pc,
		Mem:       m.mem.SnapshotPaged(),
		Kern:      m.kern.Clone(),
		Cycle:     m.steps,
		Committed: m.steps,
	}
	copy(st.IntRegs[:], m.regs[:])
	for i := range m.fp {
		st.FPRegs[i] = math.Float64bits(m.fp[i])
	}
	return st
}

// Steps returns the macro-instructions executed since machine birth
// (including any committed count inherited through Seed).
func (m *Machine) Steps() uint64 { return m.steps }

// Release returns the machine's RAM to the boot pool. The machine is
// dead afterwards — any further use faults on the nil memory. Captures
// taken before the release stay valid; they never alias the RAM.
func (m *Machine) Release() {
	mem.Release(m.mem)
	m.mem = nil
}

func (m *Machine) get(r isa.Reg) uint64 {
	if r == isa.RegNone {
		return 0
	}
	if r.IsFP() {
		return math.Float64bits(m.fp[r.FPIndex()])
	}
	return m.regs[r]
}

func (m *Machine) set(r isa.Reg, v uint64) {
	if r == isa.RegNone {
		return
	}
	if r.IsFP() {
		m.fp[r.FPIndex()] = math.Float64frombits(v)
		return
	}
	m.regs[r] = v
}

func (m *Machine) getF(r isa.Reg) float64 { return m.fp[r.FPIndex()] }

func (m *Machine) setF(r isa.Reg, v float64) { m.fp[r.FPIndex()] = v }

// Run executes up to maxSteps macro-instructions.
func Run(img *asm.Image, maxSteps uint64) Result {
	m := New(img)
	return m.run(maxSteps)
}

// Continue executes up to maxSteps further macro-instructions on a
// resumable machine (fresh, part-run, or seeded from a handoff state).
// A StepLimit result leaves the machine at an instruction boundary from
// which Continue or Capture may be called again.
func (m *Machine) Continue(maxSteps uint64) Result {
	return m.run(maxSteps)
}

func (m *Machine) fatal(e isa.Exception) Result {
	return Result{Outcome: ProcessCrash, FatalExc: e, Output: m.kern.Output, Events: m.kern.Events}
}

// flushDecodeStats folds the machine-local decode counters into the
// package-wide totals and resets them.
func (m *Machine) flushDecodeStats() {
	if m.decHits > 0 {
		decodeHits.Add(m.decHits)
		m.decHits = 0
	}
	if m.decMisses > 0 {
		decodeMisses.Add(m.decMisses)
		m.decMisses = 0
	}
}

func (m *Machine) run(maxSteps uint64) Result {
	defer m.flushDecodeStats()

	// Steps and uops accumulate on the machine so execution can resume;
	// Result counts therefore report machine totals, which for a fresh
	// machine are exactly the per-run counts.
	for executed := uint64(0); executed < maxSteps; executed++ {
		// Wild control flow into the kernel region is a panic.
		if m.pc >= mem.KernelBase {
			m.kern.Panic(m.steps, m.pc, m.pc)
			return Result{Outcome: SystemCrash, Output: m.kern.Output,
				Steps: m.steps, Uops: m.uops, Events: m.kern.Events}
		}
		var in *isa.Inst
		if m.cache != nil {
			in = m.cache.lookup(m.pc, m.dec)
		}
		if in != nil {
			m.decHits++
		} else {
			m.decMisses++
			n, f := m.mem.Fetch(m.pc, m.buf)
			if f != mem.FaultNone || n == 0 {
				r := m.fatal(isa.ExcPageFault)
				r.Steps, r.Uops = m.steps, m.uops
				return r
			}
			if err := m.dec.Decode(m.buf[:n], m.pc, &m.scratch); err != nil {
				r := m.fatal(isa.ExcIllegalInstr)
				r.Steps, r.Uops = m.steps, m.uops
				return r
			}
			in = &m.scratch
		}
		next := m.pc + uint64(in.Len)

		for i, nu := 0, int(in.NUops); i < nu; i++ {
			u := &in.Uops[i]
			m.uops++
			exc, target, taken, stop := m.exec(u, in, m.steps, m.alignCheck)
			if exc != isa.ExcNone {
				switch kernel.SeverityOf(exc) {
				case kernel.SevRecoverable:
					// Recorded inside exec; continue.
				case kernel.SevPanic:
					return Result{Outcome: SystemCrash, Output: m.kern.Output,
						Steps: m.steps, Uops: m.uops, Events: m.kern.Events}
				default:
					r := m.fatal(exc)
					r.Steps, r.Uops = m.steps, m.uops
					return r
				}
			}
			if stop {
				m.steps++
				return Result{Outcome: Completed, ExitCode: m.kern.ExitCode,
					Output: m.kern.Output, Steps: m.steps, Uops: m.uops, Events: m.kern.Events}
			}
			if taken {
				next = target
			}
		}
		m.pc = next
		m.steps++
	}
	return Result{Outcome: StepLimit, Output: m.kern.Output, Steps: m.steps, Uops: m.uops, Events: m.kern.Events}
}

// exec executes one micro-op. It returns a raised exception, a branch
// target with taken flag, and whether the machine stopped.
func (m *Machine) exec(u *isa.Uop, in *isa.Inst, step uint64, alignCheck bool) (exc isa.Exception, target uint64, taken, stop bool) {
	switch u.Op {
	case isa.Nop:
		return

	case isa.Add, isa.Sub, isa.And, isa.Or, isa.Xor, isa.Shl, isa.Shr,
		isa.Sar, isa.Mul, isa.Div, isa.Rem, isa.Mov, isa.Cmp:
		a := m.get(u.Src1)
		b := uint64(u.Imm)
		if !u.UsesImm && u.Src2 != isa.RegNone {
			b = m.get(u.Src2)
		}
		r := isa.EvalInt(u.Op, a, b, m.dec.DivZero())
		if r.DivZero {
			return isa.ExcDivZero, 0, false, false
		}
		m.set(u.Dst, r.Val)
		return

	case isa.Load, isa.FLoad:
		addr := m.get(u.Src1) + uint64(u.Imm)
		if alignCheck && addr%uint64(u.Size) != 0 {
			m.kern.Record(step, m.pc, isa.ExcAlignment, addr)
		}
		var tmp [8]byte
		if f := m.mem.Read(addr, tmp[:u.Size]); f != mem.FaultNone {
			return isa.ExcPageFault, 0, false, false
		}
		v := leLoad(tmp[:u.Size])
		if u.Op == isa.FLoad {
			m.setF(u.Dst, math.Float64frombits(v))
		} else {
			m.set(u.Dst, isa.ExtendLoad(v, u.Size, u.SignExt))
		}
		return

	case isa.Store, isa.FStore:
		addr := m.get(u.Src1) + uint64(u.Imm)
		if alignCheck && addr%uint64(u.Size) != 0 {
			m.kern.Record(step, m.pc, isa.ExcAlignment, addr)
		}
		var v uint64
		if u.Op == isa.FStore {
			v = math.Float64bits(m.getF(u.Src2))
		} else {
			v = m.get(u.Src2)
		}
		var tmp [8]byte
		leStore(tmp[:u.Size], v)
		if f := m.mem.Write(addr, tmp[:u.Size]); f != mem.FaultNone {
			if f == mem.FaultProt {
				return isa.ExcProtFault, 0, false, false
			}
			return isa.ExcPageFault, 0, false, false
		}
		return

	case isa.Jmp:
		return isa.ExcNone, in.Branch.Target, true, false
	case isa.JmpReg, isa.Ret:
		return isa.ExcNone, m.get(u.Src1), true, false
	case isa.BrFlags:
		if isa.EvalCond(u.Cond, m.get(u.Src1)) {
			return isa.ExcNone, in.Branch.Target, true, false
		}
		return
	case isa.BrCmp:
		if isa.EvalCond(u.Cond, isa.CmpFlags(m.get(u.Src1), m.get(u.Src2))) {
			return isa.ExcNone, in.Branch.Target, true, false
		}
		return
	case isa.Call:
		if u.Dst != isa.RegNone {
			m.set(u.Dst, uint64(u.Imm))
		}
		return isa.ExcNone, in.Branch.Target, true, false

	case isa.FAdd, isa.FSub, isa.FMul, isa.FDiv, isa.FMov:
		m.setF(u.Dst, isa.EvalFP(u.Op, m.getF(u.Src1), m.getF(u.Src2)))
		return
	case isa.FCvtIF:
		m.setF(u.Dst, float64(int64(m.get(u.Src1))))
		return
	case isa.FCvtFI:
		m.set(u.Dst, uint64(int64(m.getF(u.Src1))))
		return
	case isa.FMovToFP:
		m.setF(u.Dst, math.Float64frombits(m.get(u.Src1)))
		return
	case isa.FMovFromFP:
		m.set(u.Dst, math.Float64bits(m.getF(u.Src1)))
		return
	case isa.FCmp:
		m.set(u.Dst, isa.FCmpFlags(m.getF(u.Src1), m.getF(u.Src2)))
		return

	case isa.Syscall:
		stop = m.kern.Syscall(step, m.pc, m.get, m.set, m.mem.Read)
		if m.kern.Panicked {
			return isa.ExcKernelPanic, 0, false, false
		}
		return isa.ExcNone, 0, false, stop
	case isa.Halt:
		// HALT is privileged; in user mode it is an illegal instruction.
		return isa.ExcIllegalInstr, 0, false, false
	default:
		return isa.ExcIllegalInstr, 0, false, false
	}
}

func leLoad(b []byte) uint64 {
	switch len(b) {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 1:
		return uint64(b[0])
	}
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func leStore(b []byte, v uint64) {
	switch len(b) {
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 1:
		b[0] = byte(v)
	default:
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
	}
}
