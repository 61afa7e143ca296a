package ooo

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/asm"
	"repro/internal/bitarray"
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/isa/cisc"
	"repro/internal/isa/risc"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/predecode"
)

// inflightOp is an issued micro-op waiting for its completion cycle.
type inflightOp struct {
	robIdx int
	seq    uint64
	done   uint64
	value  uint64
	isLoad bool
}

// Stats are the runtime statistics backing the differential analysis.
type Stats struct {
	Cycles          uint64
	CommittedInstrs uint64
	CommittedUops   uint64
	IssuedLoads     uint64
	CommittedLoads  uint64
	IssuedStores    uint64
	CommittedStores uint64
	ForwardedLoads  uint64
	LoadReplays     uint64
	Flushes         uint64
	Syscalls        uint64
}

// CPU is one simulated machine.
type CPU struct {
	cfg Config
	// t is held by value: the cycle loop reads a trait as one byte load.
	t   Traits
	img *asm.Image
	dec isa.Decoder
	// alignCheck is the fixed-length ISA's rule: a misaligned PC faults
	// and a misaligned data access records an alignment event.
	alignCheck bool

	mem  *mem.Memory
	kern kernel.Kernel
	// kernRead is the kernel's path to user memory, bound once at New
	// from the HypervisorSyscalls trait.
	kernRead func(addr uint64, dst []byte) mem.Fault

	l2, l1d, l1i *cache.Cache
	dtlb, itlb   *cache.TLB
	// btbInd is btbDir itself when one BTB serves every branch kind.
	btbDir, btbInd *branch.BTB
	tour           *branch.Tournament
	ras            *branch.RAS

	// hier is the memory system as the detail window's exit rule sees it.
	hier *cache.Hierarchy

	intRF, fpRF *pipeline.RegFile
	rob         *pipeline.ROB
	iq          *pipeline.IQ
	lsq         *pipeline.LSQ

	pc           uint64
	fetchQ       pipeline.FetchQueue
	fetchBlocked bool
	fetchReady   uint64
	inflight     []inflightOp

	cycle      uint64
	lastCommit uint64
	stats      Stats

	rasSnaps  [][2]int
	instHeads []bool

	watch     []*bitarray.Array
	earlyStop bool

	// commitProbe, when non-nil, observes every committed architectural
	// instruction (divergence detection); the commit path pays one nil
	// check for it.
	commitProbe core.CommitProbe

	// Terminal state latched by commit.
	finished bool
	result   core.RunResult

	textEnd uint64
	// fbuf holds the bytes of one fetch, MaxInstLen of them.
	fbuf []byte
	sbuf [8]byte
	// ibuf is fetch's decode scratch; see the Decode call site.
	ibuf isa.Inst
	// insts is the image's predecode table, shared with the functional
	// tier; fetch takes an instruction from it whenever the bytes it
	// fetched are the image's (see fetchInst).
	insts *predecode.Table
	// lines is fetch's line buffer, one fetchLine per slot, direct
	// mapped by line address; lineBits is log2 of the L1I line size.
	lines    [fetchLines]fetchLine
	lineBits uint
}

// fetchLines is the number of L1I lines fetch's line buffer holds.
const fetchLines = 8

// fetchLine is one entry of the front end's line buffer: the ITLB and
// L1I hits of a fetch that read one L1I line, kept so that a later fetch
// from the same line can replay both accesses instead of repeating
// them. It is only set up while every ITLB and L1I array is
// bitarray-Quiet and the data arrays are modelled, and only over a line
// certified to hold the image's text; it holds while pc stays in its
// page and line and neither structure's generation (every fill,
// eviction, write and SetState bumps it) has moved.
type fetchLine struct {
	ok         bool
	page, base uint64 // virtual page number; virtual address of the line
	tgen, cgen uint64 // ITLB and L1I generations when it was set up
	tlb, l1i   cache.Hit
}

// assert is the dense MARSS-style internal check: it stops the simulator
// with an assertion failure, never an architectural fault. Every call
// sits under the DenseAsserts trait together with its condition: several
// conditions read model state, and a counted array read can consume a
// fault, so without the trait they must not run at all.
func assert(cond bool, msg string) { core.Assert(cond, msg) }

// New boots a simulated machine with the image, which the caller has
// checked against cfg.ISA.
func New(cfg Config, t Traits, img *asm.Image) *CPU {
	c := &CPU{cfg: cfg, t: t, img: img, mem: mem.New(), earlyStop: true}
	if cfg.ISA == "arm" {
		c.dec = risc.Decoder{}
		c.alignCheck = true
	} else {
		c.dec = cisc.Decoder{}
	}
	c.kernRead = c.kernelRead
	if t.HypervisorSyscalls {
		c.kernRead = c.hypervisorRead
	}
	c.l2 = cache.New(cfg.L2, cache.MemLevel{M: c.mem, Lat: cfg.MemLatency})
	c.l1d = cache.New(cfg.L1D, c.l2)
	c.l1i = cache.New(cfg.L1I, c.l2)
	c.dtlb = cache.NewTLB(cache.TLBConfig{Name: "dtlb", Entries: cfg.TLBEntries, Ways: cfg.TLBWays, MissLatency: cfg.TLBMissLat})
	c.itlb = cache.NewTLB(cache.TLBConfig{Name: "itlb", Entries: cfg.TLBEntries, Ways: cfg.TLBWays, MissLatency: cfg.TLBMissLat})
	c.hier = cache.NewHierarchy(c.mem, []*cache.Cache{c.l1d, c.l1i, c.l2}, []*cache.TLB{c.dtlb, c.itlb})
	c.btbDir = branch.NewBTB(cfg.BTBDir)
	c.btbInd = c.btbDir
	if cfg.BTBInd.Entries > 0 {
		c.btbInd = branch.NewBTB(cfg.BTBInd)
	}
	c.tour = branch.NewTournament(branch.TournamentConfig{
		LocalEntries: cfg.LocalEntries, LocalHistBits: cfg.LocalHistBits,
		GlobalBits: cfg.GlobalBits, ChoiceByAddress: t.ChoiceByAddress,
	})
	c.ras = branch.NewRAS("ras", cfg.RASEntries)
	c.intRF = pipeline.NewRegFile("rf.int", isa.NumIntRegs, cfg.IntPhysRegs, false)
	c.fpRF = pipeline.NewRegFile("rf.fp", isa.NumFPRegs, cfg.FPPhysRegs, true)
	c.rob = pipeline.NewROB(cfg.ROBEntries)
	c.iq = pipeline.NewIQ("iq", cfg.IQEntries)
	c.lsq = pipeline.NewLSQ(pipeline.LSQConfig{
		Name: "lsq.data", Unified: t.UnifiedLSQ,
		LoadEntries: cfg.LoadEntries, StoreEntries: cfg.StoreEntries,
	})

	c.mem.Load(img.TextBase, img.Text)
	c.mem.Load(img.DataBase, img.Data)
	c.textEnd = img.TextBase + uint64(len(img.Text))
	c.mem.SetTextEnd(c.textEnd)
	c.pc = img.Entry
	c.intRF.WriteArch(int(isa.SP), mem.StackTop)
	c.insts = predecode.For(img)
	c.fbuf = make([]byte, c.dec.MaxInstLen())
	for 1<<c.lineBits < cfg.L1I.LineSize {
		c.lineBits++
	}
	c.rasSnaps = make([][2]int, cfg.ROBEntries)
	c.instHeads = make([]bool, cfg.ROBEntries)
	return c
}

// ReleaseMemory returns the machine's RAM and its caches' array storage
// to the boot pools; the scheduler calls it once a run's result and
// captures are fully extracted. The machine is dead afterwards.
func (c *CPU) ReleaseMemory() {
	mem.Release(c.mem)
	c.mem, c.hier = nil, nil
	c.l1d.Release()
	c.l1i.Release()
	c.l2.Release()
}

// Name implements core.Simulator.
func (c *CPU) Name() string { return c.cfg.Name }

// ISA implements core.Simulator.
func (c *CPU) ISA() string { return c.cfg.ISA }

// splitBTB reports whether indirect branches have a BTB of their own.
func (c *CPU) splitBTB() bool { return c.btbInd != c.btbDir }

// CurrentCycle implements core.CycleSource: the golden-run liveness
// profiler samples it from the storage-array access hooks.
func (c *CPU) CurrentCycle() uint64 { return c.cycle }

// Structures implements core.Simulator.
func (c *CPU) Structures() map[string]*bitarray.Array {
	m := map[string]*bitarray.Array{
		"rf.int":   c.intRF.Array(),
		"rf.fp":    c.fpRF.Array(),
		"lsq.data": c.lsq.DataArray(),
		"iq":       c.iq.Array(),
		"ras":      c.ras.Array(),
	}
	for _, a := range c.l1d.Arrays() {
		m[a.Name()] = a
	}
	for _, a := range c.l1i.Arrays() {
		m[a.Name()] = a
	}
	for _, a := range c.l2.Arrays() {
		m[a.Name()] = a
	}
	for _, a := range c.dtlb.Arrays() {
		m[a.Name()] = a
	}
	for _, a := range c.itlb.Arrays() {
		m[a.Name()] = a
	}
	for _, a := range c.btbDir.Arrays() {
		m[a.Name()] = a
	}
	if c.splitBTB() {
		for _, a := range c.btbInd.Arrays() {
			m[a.Name()] = a
		}
	}
	return m
}

// WatchArrays implements core.Simulator.
func (c *CPU) WatchArrays(arrs []*bitarray.Array) { c.watch = arrs }

// SetEarlyStop implements core.Simulator.
func (c *CPU) SetEarlyStop(on bool) { c.earlyStop = on }

// Stats implements core.Simulator.
func (c *CPU) Stats() map[string]uint64 {
	m := map[string]uint64{
		"cycles":           c.stats.Cycles,
		"committed_instrs": c.stats.CommittedInstrs,
		"committed_uops":   c.stats.CommittedUops,
		"issued_loads":     c.stats.IssuedLoads,
		"committed_loads":  c.stats.CommittedLoads,
		"issued_stores":    c.stats.IssuedStores,
		"committed_stores": c.stats.CommittedStores,
		"forwarded_loads":  c.stats.ForwardedLoads,
		"load_replays":     c.stats.LoadReplays,
		"flushes":          c.stats.Flushes,
		"syscalls":         c.stats.Syscalls,
		"bp_lookups":       c.tour.Lookups(),
		"bp_mispredicts":   c.tour.Mispredicts(),
	}
	addCache := func(prefix string, s cache.Stats) {
		m[prefix+"_read_hits"] = s.ReadHits
		m[prefix+"_read_misses"] = s.ReadMisses
		m[prefix+"_write_hits"] = s.WriteHits
		m[prefix+"_write_misses"] = s.WriteMisses
		m[prefix+"_writebacks"] = s.Writebacks
		m[prefix+"_replacements"] = s.Replacements
		m[prefix+"_prefetches"] = s.Prefetches
	}
	addCache("l1d", c.l1d.Stats())
	addCache("l1i", c.l1i.Stats())
	addCache("l2", c.l2.Stats())
	return m
}

// ---- Memory helpers ----------------------------------------------------------

// dRead reads program data through the D-cache (or, in the §III.C
// ablation, through a tags-only timing model with data from memory).
func (c *CPU) dRead(addr uint64, dst []byte) int {
	if !c.cfg.ModelDataArrays {
		lat := c.l1d.Timing(addr, len(dst), false)
		c.mem.RawRead(addr, dst)
		return lat
	}
	lat, hit := c.l1d.Read(addr, dst)
	if !hit && c.cfg.L1DPrefetch {
		c.l1d.Prefetch(addr + uint64(c.cfg.L1D.LineSize))
	}
	return lat
}

// dWrite writes program data through the D-cache.
func (c *CPU) dWrite(addr uint64, src []byte) int {
	if !c.cfg.ModelDataArrays {
		lat := c.l1d.Timing(addr, len(src), true)
		c.mem.RawWrite(addr, src)
		return lat
	}
	lat, _ := c.l1d.Write(addr, src)
	return lat
}

// hypervisorRead is the QEMU-escape path: the kernel reads user memory
// from the main memory model directly, bypassing the cache arrays, so
// cache corruption never reaches syscall-visible data (Remark 3).
func (c *CPU) hypervisorRead(addr uint64, dst []byte) mem.Fault {
	return c.mem.Read(addr, dst)
}

// kernelRead is the full-system path: with no hypervisor, kernel reads
// of user memory travel through the data cache and observe — and
// consume — any corruption sitting in its arrays.
func (c *CPU) kernelRead(addr uint64, dst []byte) mem.Fault {
	if f := c.mem.CheckUser(addr, len(dst), false); f != mem.FaultNone {
		return f
	}
	c.l1d.Read(addr, dst)
	return mem.FaultNone
}

// ---- Register helpers ----------------------------------------------------------

func (c *CPU) file(fp bool) *pipeline.RegFile {
	if fp {
		return c.fpRF
	}
	return c.intRF
}

func archSlot(r isa.Reg) (fp bool, idx int) {
	if r.IsFP() {
		return true, r.FPIndex()
	}
	return false, int(r)
}

func (c *CPU) lookup(r isa.Reg) pipeline.PhysReg {
	if r == isa.RegNone {
		return pipeline.PhysNone
	}
	fp, idx := archSlot(r)
	return c.file(fp).Lookup(idx)
}

// readPhys and ready keep no range check of their own: without
// DenseAsserts a corrupted register index takes the simulator down
// through the contained Go panic (Remark 8's simulator crash). ready is
// handed the trait by the issue loop, its only caller.
func (c *CPU) readPhys(p pipeline.PhysReg) uint64 {
	if c.t.DenseAsserts {
		assert(int(p.Idx) < c.file(p.FP).Array().Entries(), "regfile: physical register index out of range")
	}
	return c.file(p.FP).Read(p)
}

func (c *CPU) ready(p pipeline.PhysReg, dense bool) bool {
	if !p.Valid() {
		return true
	}
	if dense {
		assert(int(p.Idx) < c.file(p.FP).Array().Entries(), "regfile: physical register index out of range")
	}
	return c.file(p.FP).Ready(p)
}

// ---- Run loop ----------------------------------------------------------------

// Run implements core.Simulator.
func (c *CPU) Run(limitCycles uint64) (res core.RunResult) {
	defer func() {
		if r := recover(); r != nil {
			if ae, ok := r.(core.AssertError); ok {
				res = c.snapshotResult(core.RunAssert)
				res.AssertMsg = ae.Msg
				return
			}
			// Anything else is a corruption-induced inconsistency no
			// assertion caught: a simulator crash.
			res = c.snapshotResult(core.RunSimCrash)
			res.AssertMsg = fmt.Sprint(r)
		}
	}()

	const deadlockWindow = 100_000
	for c.cycle < limitCycles {
		for _, a := range c.watch {
			st := a.Tick(c.cycle)
			if c.earlyStop && (st == bitarray.StatusOverwritten || st == bitarray.StatusSkippedInvalid) {
				return c.snapshotResult(core.RunEarlyMasked)
			}
		}
		c.commit()
		if c.finished {
			return c.result
		}
		c.complete()
		c.issue()
		c.rename()
		c.fetch()
		c.cycle++
		c.stats.Cycles = c.cycle
		if c.cycle-c.lastCommit > deadlockWindow {
			r := c.snapshotResult(core.RunCycleLimit)
			r.CommitStalled = true
			return r
		}
	}
	r := c.snapshotResult(core.RunCycleLimit)
	r.CommitStalled = c.cycle-c.lastCommit > deadlockWindow
	return r
}

func (c *CPU) snapshotResult(st core.RunStatus) core.RunResult {
	return core.RunResult{
		Status:    st,
		ExitCode:  c.kern.ExitCode,
		Output:    c.kern.Output,
		Committed: c.stats.CommittedInstrs,
		Cycles:    c.cycle,
		Events:    c.kern.Events,
	}
}

func (c *CPU) finish(st core.RunStatus, exc isa.Exception) {
	c.finished = true
	c.result = c.snapshotResult(st)
	c.result.FatalExc = exc
}

// flush squashes everything in flight and restarts fetch at newPC.
func (c *CPU) flush(newPC uint64) {
	c.rob.FlushAll()
	c.iq.FlushAll()
	c.lsq.FlushAll()
	c.intRF.Flush()
	c.fpRF.Flush()
	c.tour.OnFlush()
	c.inflight = c.inflight[:0]
	c.fetchQ.Reset()
	c.fetchBlocked = false
	c.pc = newPC
	c.fetchReady = c.cycle + 3 // redirect penalty
	c.stats.Flushes++
}

// ---- Fetch ----------------------------------------------------------------

func (c *CPU) poison(pc uint64, exc isa.Exception, info uint64) {
	fu := c.fetchQ.Push()
	fu.Uop = isa.Uop{Op: isa.Nop, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	fu.PC, fu.NextPC, fu.InstFirst = pc, pc, true
	fu.Exc, fu.ExcInfo = exc, info
	fu.IsBranch = false
	c.fetchBlocked = true
}

// buffered returns the line buffer's entry for the L1I line at virtual
// address base when it holds for a fetch from the page of pc, nil
// otherwise.
func (c *CPU) buffered(pc, base uint64) *fetchLine {
	lb := &c.lines[base>>c.lineBits%fetchLines]
	if lb.ok && lb.base == base && lb.page == pc>>cache.PageBits &&
		lb.tgen == c.itlb.Gen() && lb.cgen == c.l1i.Gen() {
		return lb
	}
	return nil
}

// fetchInst reads and decodes the instruction at pc, a text address the
// caller has checked: the ITLB translation, the L1I read (or the
// tags-only timing access), the prefetch on a miss and the front-end
// stall. ok is false when it poisoned the fetch instead.
//
// While the line buffer holds the line, or the two lines of one page,
// that the fetch reads, the translation and the read are replayed (same
// counts, hits, LRU stamps and latency) and the instruction comes from
// the predecode table. Otherwise the accesses run, and the instruction
// still comes from the table when the fetched bytes are the image's;
// only bytes that differ from the image (a corrupted line) or that the
// table cannot decode go through the decoder.
func (c *CPU) fetchInst(pc uint64) (inst *isa.Inst, stall int, ok bool) {
	need := len(c.fbuf)
	if pc+uint64(need) > c.textEnd {
		need = int(c.textEnd - pc)
	}
	lineSize := uint64(1) << c.lineBits
	base := pc &^ (lineSize - 1)
	end := pc + uint64(need)
	if a := c.buffered(pc, base); a != nil && c.itlb.Quiet() && c.l1i.Quiet() {
		var b *fetchLine
		if end > base+lineSize {
			b = c.buffered(pc, base+lineSize)
		}
		if end <= base+lineSize || b != nil && end <= base+2*lineSize {
			if inst := c.insts.Lookup(pc, c.dec); inst != nil {
				c.itlb.ReplayTranslate(a.tlb, pc)
				c.l1i.ReplayRead(a.l1i)
				if b != nil {
					// A read over two lines pays the hit latency twice.
					c.l1i.ReplayRead(b.l1i)
					if stall = c.cfg.L1I.Latency; stall > 0 {
						c.fetchReady = c.cycle + uint64(stall)
					}
				}
				return inst, stall, true
			}
		}
	}

	tgen := c.itlb.Gen()
	paddr, tlbLat := c.itlb.Translate(pc)
	if paddr >= mem.KernelBase || paddr < mem.NullPageEnd {
		// A corrupted TLB PPN redirected the fetch itself.
		c.poison(pc, isa.ExcPageFault, paddr)
		return nil, 0, false
	}
	var lat int
	var hit bool
	if c.cfg.ModelDataArrays {
		lat, hit = c.l1i.Read(paddr, c.fbuf[:need])
	} else {
		lat = c.l1i.Timing(paddr, need, false)
		hit = lat <= c.cfg.L1I.Latency
		c.mem.RawRead(paddr, c.fbuf[:need])
	}
	if !hit && c.cfg.L1IPrefetch {
		c.l1i.Prefetch(paddr + uint64(c.cfg.L1I.LineSize))
	}
	stall = lat - c.cfg.L1I.Latency + tlbLat
	if stall > 0 {
		c.fetchReady = c.cycle + uint64(stall)
	}

	if bytes.Equal(c.fbuf[:need], c.insts.Text(pc, need)) {
		inst = c.insts.Lookup(pc, c.dec)
	}
	if inst == nil {
		// Decode into the CPU-owned scratch instruction: a stack-local
		// escapes through the interface call and heap-allocates on
		// every fetch. Both decoders Reset the destination first, and
		// the instruction is fully consumed before the next decode.
		inst = &c.ibuf
		if err := c.dec.Decode(c.fbuf[:need], pc, inst); err != nil {
			// Invalid encodings flow to commit as poisoned uops; on the
			// true path the commit stage decides between the assert and
			// the undefined-instruction fault (Remark 8).
			c.poison(pc, isa.ExcIllegalInstr, pc)
			return nil, 0, false
		}
		return inst, stall, true
	}

	// A quiet one-line hit on both structures sets the line's buffer
	// entry up, once the line is certified to hold the image's text
	// wherever it overlaps it.
	lb := &c.lines[base>>c.lineBits%fetchLines]
	lb.ok = false
	if c.cfg.ModelDataArrays && hit && tlbLat == 0 && c.itlb.Gen() == tgen &&
		end <= base+lineSize && c.itlb.Quiet() && c.l1i.Quiet() {
		lo, hi := max(base, c.img.TextBase), min(base+lineSize, c.textEnd)
		h := c.l1i.LastHit()
		if c.l1i.HoldsBytes(h.Line, int(lo-base), c.img.Text[lo-c.img.TextBase:hi-c.img.TextBase]) {
			*lb = fetchLine{ok: true, page: pc >> cache.PageBits, base: base,
				tgen: tgen, cgen: c.l1i.Gen(), tlb: c.itlb.LastHit(), l1i: h}
		}
	}
	return inst, stall, true
}

func (c *CPU) fetch() {
	if c.fetchBlocked || c.cycle < c.fetchReady || c.fetchQ.Len() > 4*c.cfg.FetchWidth {
		return
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		pc := c.pc
		if pc >= mem.KernelBase {
			// Committed control flow into the kernel region: the
			// poison reaches commit only on the true path, where it
			// becomes a kernel panic (system crash).
			c.poison(pc, isa.ExcKernelPanic, pc)
			return
		}
		if pc < c.img.TextBase || pc >= c.textEnd {
			c.poison(pc, isa.ExcPageFault, pc)
			return
		}
		if c.alignCheck && pc%4 != 0 {
			// The fixed-length ISA faults on a misaligned PC.
			c.poison(pc, isa.ExcPageFault, pc)
			return
		}
		inst, stall, ok := c.fetchInst(pc)
		if !ok {
			return
		}
		nextPC := pc + uint64(inst.Len)

		// Branch prediction.
		predTaken, predTarget := false, nextPC
		var pred branch.Prediction
		hasPred := false
		rasTop, rasDepth := c.ras.Snapshot()
		b := inst.Branch
		if b.IsBranch {
			switch {
			case b.IsRet:
				predTaken = true
				if t, ok := c.ras.Pop(); ok {
					predTarget = t
				}
			case b.IsIndirect:
				predTaken = true
				if t, ok := c.btbInd.Lookup(pc); ok {
					predTarget = t
				}
			case b.IsCond:
				pred = c.tour.Predict(pc)
				hasPred = true
				predTaken = pred.Taken
				predTarget = b.Target
				if t, ok := c.btbDir.Lookup(pc); ok {
					predTarget = t
				}
			default: // unconditional direct jump or call
				predTaken = true
				predTarget = b.Target
				if t, ok := c.btbDir.Lookup(pc); ok {
					predTarget = t
				}
			}
			if b.IsCall {
				c.ras.Push(nextPC)
			}
		}

		for i := 0; i < int(inst.NUops); i++ {
			fu := c.fetchQ.Push()
			fu.Uop, fu.PC, fu.NextPC, fu.InstFirst = inst.Uops[i], pc, nextPC, i == 0
			fu.Exc, fu.ExcInfo = isa.ExcNone, 0
			fu.IsBranch = inst.Uops[i].IsBranch()
			if fu.IsBranch {
				fu.BranchInfo = b
				fu.HasPred = hasPred
				fu.Pred = pred
				fu.PredTaken = predTaken
				fu.PredTarget = predTarget
				fu.RASTop, fu.RASDepth = rasTop, rasDepth
			}
		}

		if b.IsBranch && predTaken {
			c.pc = predTarget
			return // taken-predicted branches end the fetch group
		}
		c.pc = nextPC
		if stall > 0 {
			return
		}
	}
}

// ---- Rename/dispatch ----------------------------------------------------------

func (c *CPU) rename() {
	for n := 0; n < c.cfg.RenameWidth && c.fetchQ.Len() > 0; n++ {
		fu := c.fetchQ.Front()
		u := fu.Uop
		if c.rob.Full() {
			return
		}
		isMem := u.IsMem()
		if isMem && !c.lsq.CanAlloc(u.IsStore()) {
			return
		}
		needsIQ := fu.Exc == isa.ExcNone && needsIQ(u)
		if needsIQ && c.iq.Full() {
			return
		}

		src1 := c.lookup(u.Src1)
		src2 := c.lookup(u.Src2)
		var dst, old pipeline.PhysReg
		dst = pipeline.PhysNone
		if u.HasDst() {
			fp, arch := archSlot(u.Dst)
			var ok bool
			dst, old, ok = c.file(fp).Rename(arch)
			if !ok {
				return // free list empty: stall rename
			}
		}

		// The ROB slot keeps its previous micro-op's fields: each is
		// assigned here (the branch ones on a branch only, the only
		// micro-op anything reads them on), or by the switch below.
		idx := c.rob.Alloc()
		e := c.rob.At(idx)
		e.PC = fu.PC
		e.NextPC = fu.NextPC
		e.Uop = u
		e.Dst, e.OldDst, e.Src1, e.Src2 = dst, old, src1, src2
		e.ArchDst = u.Dst
		e.Exc, e.ExcInfo = fu.Exc, fu.ExcInfo
		e.Dispatched, e.Executed, e.Violated, e.IsSyscall = false, false, false, false
		e.IsBranch = fu.IsBranch
		if fu.IsBranch {
			e.BranchInfo = fu.BranchInfo
			e.HasPred = fu.HasPred
			e.Pred = fu.Pred
			e.PredTaken = fu.PredTaken
			e.PredTarget = fu.PredTarget
			e.ActualTaken, e.ActualTarget, e.Mispredicted = false, 0, false
			c.rasSnaps[idx] = [2]int{fu.RASTop, fu.RASDepth}
		}
		c.instHeads[idx] = fu.InstFirst

		switch {
		case fu.Exc != isa.ExcNone:
			e.Executed = true
		case u.Op == isa.Nop:
			e.Executed = true
		case u.Op == isa.Halt:
			// Privileged in user mode.
			e.Exc = isa.ExcIllegalInstr
			e.Executed = true
		case u.Op == isa.Syscall:
			e.IsSyscall = true
			e.Executed = true
		case u.Op == isa.Jmp:
			e.ActualTaken = true
			e.ActualTarget = fu.BranchInfo.Target
			e.Mispredicted = c.predictedNext(e) != e.ActualTarget
			e.Executed = true
		case u.Op == isa.Call:
			if dst.Valid() {
				c.file(dst.FP).Write(dst, uint64(u.Imm))
			}
			e.ActualTaken = true
			e.ActualTarget = fu.BranchInfo.Target
			e.Mispredicted = c.predictedNext(e) != e.ActualTarget
			e.Executed = true
		default:
			if isMem {
				// The capacity was verified above; without the assert a
				// corrupted queue that still fails surfaces later as a
				// simulator crash.
				li, ok := c.lsq.Alloc(u.IsStore(), idx, e.Seq)
				if c.t.DenseAsserts {
					assert(ok, "lsq: allocation failed after capacity check")
				}
				e.LSQIdx = li
			}
			ok := c.iq.Alloc(&u, dst, src1, src2, idx)
			if c.t.DenseAsserts {
				assert(ok, "iq: allocation failed after capacity check")
			}
			e.Dispatched = true
		}
		c.fetchQ.Pop()
	}
}

// needsIQ reports whether the uop is scheduled through the issue queue.
func needsIQ(u isa.Uop) bool {
	switch u.Op {
	case isa.Nop, isa.Halt, isa.Syscall, isa.Jmp, isa.Call:
		return false
	}
	return true
}

// predictedNext returns the next PC the front end followed after this
// branch.
func (c *CPU) predictedNext(e *pipeline.ROBEntry) uint64 {
	if e.PredTaken {
		return e.PredTarget
	}
	return e.NextPC
}

// actualNext returns the architecturally correct next PC of a resolved
// branch.
func actualNext(e *pipeline.ROBEntry) uint64 {
	if e.ActualTaken {
		return e.ActualTarget
	}
	return e.NextPC
}

// ---- Issue/execute -------------------------------------------------------------

// units is what the issue stage has left to issue to in one cycle.
type units struct{ intALU, fpALU, mem int }

func (c *CPU) issue() {
	u := units{c.cfg.IntALUs, c.cfg.FPALUs, c.cfg.MemPorts}
	// The loop visits every occupied slot every cycle and checks three
	// assertions per slot; the trait is read once for all of them (the
	// calls in between keep the compiler from doing it, and re-reading
	// it per slot cost 4-7% of a golden run).
	dense := c.t.DenseAsserts
	if c.iq.Array().Quiet() && !c.cfg.InOrder {
		c.issueQuiet(&u, dense)
		return
	}
	issued := 0
	// Oldest-first selection over the occupied issue queue slots.
	for slot, next := c.iq.Select(), 0; slot >= 0; slot = next {
		next = c.iq.Younger(slot)
		if issued >= c.cfg.IssueWidth {
			return
		}
		// Wakeup reads the slot again; only a micro-op whose sources
		// are ready is copied out.
		w := c.iq.Read(slot)
		if dense {
			assert(int(w.Op) < isa.NumOps, "iq: corrupted opcode in issue payload")
		}
		if !c.ready(w.Src1, dense) || !c.ready(w.Src2, dense) {
			if c.cfg.InOrder {
				// The Atom-like model issues strictly in program
				// order: a stalled micro-op stalls everything younger.
				return
			}
			continue
		}
		if c.issueSlot(slot, w, &u, dense) {
			issued++
		} else if c.cfg.InOrder {
			return
		}
	}
}

// issueQuiet is issue's walk while the queue's array is quiet: a read of
// a slot would return the slot's copy, whose opcode is rename's, so the
// queue probes the copies' sources itself and the walk goes from ready
// slot to ready slot. The slots it visits on the way are only counted,
// two reads each, once it stops.
func (c *CPU) issueQuiet(u *units, dense bool) {
	visited, issued := 0, 0
	for slot := c.iq.Select(); ; {
		s, waiting := c.iq.NextReady(slot, c.intRF, c.fpRF)
		visited += waiting
		if s < 0 {
			break
		}
		visited++
		slot = c.iq.Younger(s)
		if c.issueSlot(s, c.iq.Copy(s), u, dense) {
			if issued++; issued >= c.cfg.IssueWidth {
				break
			}
		}
	}
	c.iq.CountReads(2 * visited)
}

// issueSlot issues the ready micro-op p of the slot, if a unit is left
// for it and (a load) no older store blocks it, and reports whether it
// did.
func (c *CPU) issueSlot(slot int, p *pipeline.PackedUop, u *units, dense bool) bool {
	robIdx := c.iq.ROBIdx(slot)
	if dense {
		assert(robIdx >= 0 && robIdx < c.rob.Cap(), "iq: corrupted ROB link")
	}
	e := c.rob.At(robIdx)
	switch {
	case p.Op == isa.Load || p.Op == isa.FLoad:
		if u.mem == 0 || !c.issueLoad(slot, p, robIdx, e) {
			return false
		}
		u.mem--
	case p.Op == isa.Store || p.Op == isa.FStore:
		if u.mem == 0 {
			return false
		}
		c.issueStore(slot, p, e)
		u.mem--
	case isFPUOp(p.Op):
		if u.fpALU == 0 {
			return false
		}
		c.issueFP(slot, p, robIdx, e)
		u.fpALU--
	default:
		if u.intALU == 0 {
			return false
		}
		c.issueInt(slot, p, robIdx, e)
		u.intALU--
	}
	return true
}

func isFPUOp(op isa.Op) bool {
	switch op {
	case isa.FAdd, isa.FSub, isa.FMul, isa.FDiv, isa.FMov, isa.FCvtIF,
		isa.FCvtFI, isa.FCmp, isa.FMovToFP, isa.FMovFromFP:
		return true
	}
	return false
}

func (c *CPU) operand(p *pipeline.PackedUop) (a, b uint64) {
	if p.Src1.Valid() {
		a = c.readPhys(p.Src1)
	}
	if p.UsesImm {
		b = uint64(p.Imm)
	} else if p.Src2.Valid() {
		b = c.readPhys(p.Src2)
	}
	return a, b
}

// agu computes and validates a data address. It returns ok=false when an
// exception was recorded on the ROB entry.
func (c *CPU) agu(p *pipeline.PackedUop, e *pipeline.ROBEntry, write bool) (addr uint64, lat int, ok bool) {
	base := c.readPhys(p.Src1)
	vaddr := base + uint64(p.Imm)
	if c.t.DenseAsserts {
		assert(p.Size >= 1 && p.Size <= 8, "lsq: corrupted access size")
	}
	if c.alignCheck && p.Size != 0 && vaddr%uint64(p.Size) != 0 {
		// The ARM-flavoured ISA records an alignment event; the kernel
		// fixes the access up and the program continues — a DUE source.
		if e.Exc == isa.ExcNone {
			e.Exc = isa.ExcAlignment
			e.ExcInfo = vaddr
		}
	}
	if f := c.mem.CheckUser(vaddr, int(p.Size), write); f != mem.FaultNone {
		if f == mem.FaultProt {
			e.Exc = isa.ExcProtFault
		} else {
			e.Exc = isa.ExcPageFault
		}
		e.ExcInfo = vaddr
		e.Executed = true
		return 0, 0, false
	}
	paddr, tlbLat := c.dtlb.Translate(vaddr)
	if f := c.mem.CheckUser(paddr, int(p.Size), write); f != mem.FaultNone {
		// A corrupted TLB PPN redirected the access out of bounds.
		e.Exc = isa.ExcPageFault
		e.ExcInfo = paddr
		e.Executed = true
		return 0, 0, false
	}
	return paddr, tlbLat, true
}

// issueLoad attempts to issue a load and reports whether it occupied a
// memory port. Under SpeculativeLoads unknown older store addresses do not
// block it; otherwise the load refuses to issue while any older store
// address is unresolved (the Remark 3 contrast).
func (c *CPU) issueLoad(slot int, p *pipeline.PackedUop, robIdx int, e *pipeline.ROBEntry) bool {
	addr, tlbLat, ok := c.agu(p, e, false)
	if !ok {
		c.iq.Release(slot)
		return true
	}
	if c.t.DenseAsserts {
		assert(e.LSQIdx >= 0, "lsq: load without queue entry")
	}
	c.lsq.SetAddr(e.LSQIdx, addr, p.Size)
	fwd := c.lsq.QueryLoad(e.LSQIdx)
	if fwd.MustWait || (fwd.UnknownOlder && !c.t.SpeculativeLoads) {
		return false // retry next cycle
	}
	var raw uint64
	var lat int
	if fwd.Forward {
		raw = c.lsq.Data(fwd.FwdIdx) >> (8 * fwd.FwdShift)
		lat = 1
		c.stats.ForwardedLoads++
	} else {
		lat = c.dRead(addr, c.sbuf[:p.Size])
		raw = leLoad(c.sbuf[:p.Size])
	}
	c.stats.IssuedLoads++
	c.lsq.MarkExecuted(e.LSQIdx)
	c.iq.Release(slot)
	c.launch(robIdx, e.Seq, c.cycle+uint64(lat+tlbLat), raw, true)
	return true
}

func (c *CPU) issueStore(slot int, p *pipeline.PackedUop, e *pipeline.ROBEntry) {
	addr, _, ok := c.agu(p, e, true)
	if !ok {
		c.iq.Release(slot)
		return
	}
	if c.t.DenseAsserts {
		assert(e.LSQIdx >= 0, "lsq: store without queue entry")
	}
	var data uint64
	if p.Src2.Valid() {
		data = c.readPhys(p.Src2)
	}
	c.lsq.SetAddr(e.LSQIdx, addr, p.Size)
	c.lsq.PutData(e.LSQIdx, data)
	c.stats.IssuedStores++
	// Conservative load issue means no ordering violation can exist, so
	// only a speculating core scans for one.
	if c.t.SpeculativeLoads {
		c.storeResolved(e)
	}
	e.Executed = true
	c.iq.Release(slot)
}

// storeResolved is the speculating core's work when a store's address
// resolves.
func (c *CPU) storeResolved(e *pipeline.ROBEntry) {
	// A just-resolved store may expose younger loads that already read
	// stale data.
	for _, v := range c.lsq.StoreResolved(e.LSQIdx) {
		if c.t.DenseAsserts {
			assert(v >= 0 && v < c.rob.Cap(), "lsq: corrupted violation ROB link")
		}
		c.rob.At(v).Violated = true
	}
	// MARSS-style replays: younger loads that already executed against
	// the same cache line re-access it once the store resolves, which
	// inflates the executed-load count well above the committed count
	// (the Remark 3 statistic).
	for _, li := range c.lsq.LineSharers(e.LSQIdx, uint64(c.cfg.L1D.LineSize)) {
		la, ls := c.lsq.Addr(li)
		c.stats.IssuedLoads++
		c.dRead(la, c.sbuf[:ls])
	}
}

func (c *CPU) issueInt(slot int, p *pipeline.PackedUop, robIdx int, e *pipeline.ROBEntry) {
	c.iq.Release(slot)
	switch p.Op {
	case isa.BrFlags:
		flags := c.readPhys(p.Src1)
		e.ActualTaken = isa.EvalCond(p.Cond, flags)
		e.ActualTarget = e.BranchInfo.Target
		e.Mispredicted = c.predictedNext(e) != actualNext(e)
		e.Executed = true
		return
	case isa.BrCmp:
		a, b := c.operand(p)
		e.ActualTaken = isa.EvalCond(p.Cond, isa.CmpFlags(a, b))
		e.ActualTarget = e.BranchInfo.Target
		e.Mispredicted = c.predictedNext(e) != actualNext(e)
		e.Executed = true
		return
	case isa.JmpReg, isa.Ret:
		e.ActualTaken = true
		e.ActualTarget = c.readPhys(p.Src1)
		e.Mispredicted = c.predictedNext(e) != actualNext(e)
		e.Executed = true
		return
	}
	a, b := c.operand(p)
	r := isa.EvalInt(p.Op, a, b, c.dec.DivZero())
	if r.DivZero {
		e.Exc = isa.ExcDivZero
		e.Executed = true
		return
	}
	lat := 1
	switch p.Op {
	case isa.Mul:
		lat = 3
	case isa.Div, isa.Rem:
		lat = 20
	}
	c.launch(robIdx, e.Seq, c.cycle+uint64(lat), r.Val, false)
}

func (c *CPU) issueFP(slot int, p *pipeline.PackedUop, robIdx int, e *pipeline.ROBEntry) {
	c.iq.Release(slot)
	bits := func(p pipeline.PhysReg) float64 { return math.Float64frombits(c.readPhys(p)) }
	var val uint64
	lat := 4
	switch p.Op {
	case isa.FAdd, isa.FSub, isa.FMul, isa.FDiv, isa.FMov:
		if p.Op == isa.FDiv {
			lat = 12
		}
		val = math.Float64bits(isa.EvalFP(p.Op, bits(p.Src1), bits(p.Src2)))
	case isa.FCvtIF:
		val = math.Float64bits(float64(int64(c.readPhys(p.Src1))))
	case isa.FCvtFI:
		val = uint64(int64(bits(p.Src1)))
	case isa.FMovToFP:
		val = c.readPhys(p.Src1)
	case isa.FMovFromFP:
		val = c.readPhys(p.Src1)
	case isa.FCmp:
		val = isa.FCmpFlags(bits(p.Src1), bits(p.Src2))
		lat = 2
	}
	c.launch(robIdx, e.Seq, c.cycle+uint64(lat), val, false)
}

// launch puts an issued micro-op into execution until cycle done. The
// entry is written field by field: appending a composite literal copies
// it from the stack as a whole, stalling on the stores just made.
func (c *CPU) launch(robIdx int, seq, done, value uint64, isLoad bool) {
	n := len(c.inflight)
	if n < cap(c.inflight) {
		c.inflight = c.inflight[:n+1]
	} else {
		c.inflight = append(c.inflight, inflightOp{})
	}
	op := &c.inflight[n]
	op.robIdx, op.seq, op.done, op.value, op.isLoad = robIdx, seq, done, value, isLoad
}

// ---- Completion ---------------------------------------------------------------

func (c *CPU) complete() {
	out := c.inflight[:0]
	for _, op := range c.inflight {
		if op.done > c.cycle {
			out = append(out, op)
			continue
		}
		e := c.rob.At(op.robIdx)
		if c.t.DenseAsserts {
			assert(e.Seq == op.seq, "complete: stale in-flight op after flush")
		}
		v := op.value
		if op.isLoad {
			v = isa.ExtendLoad(v, e.Uop.Size, e.Uop.SignExt)
			if e.Uop.Op == isa.FLoad {
				// raw bits flow into the FP register unchanged
				v = op.value
			}
			// A unified LSQ holds load results too: the value lands in
			// the queue's data field and the register read goes through
			// it (Remark 1's mechanism). In the split organization the
			// result goes straight to the register file.
			if c.t.UnifiedLSQ {
				if c.t.DenseAsserts {
					assert(e.LSQIdx >= 0, "complete: load without queue entry")
				}
				c.lsq.PutData(e.LSQIdx, v)
				v = c.lsq.Data(e.LSQIdx)
			}
		}
		if e.Dst.Valid() {
			c.file(e.Dst.FP).Write(e.Dst, v)
		}
		e.Executed = true
	}
	c.inflight = out
}

// ---- Commit ---------------------------------------------------------------

func (c *CPU) commit() {
	for n := 0; n < c.cfg.CommitWidth && !c.rob.Empty(); n++ {
		idx := c.rob.Head()
		e := c.rob.At(idx)
		if !e.Executed {
			return
		}

		// Speculative-load replay: the load read stale data; squash and
		// refetch from the load's instruction.
		if c.t.SpeculativeLoads && e.Violated && e.Uop.IsLoad() && e.Exc == isa.ExcNone {
			c.stats.LoadReplays++
			c.flush(e.PC)
			c.lastCommit = c.cycle
			return
		}

		if e.Exc != isa.ExcNone {
			switch kernel.SeverityOf(e.Exc) {
			case kernel.SevRecoverable:
				c.kern.Record(c.cycle, e.PC, e.Exc, e.ExcInfo)
			case kernel.SevPanic:
				c.kern.Panic(c.cycle, e.PC, e.ExcInfo)
				c.finish(core.RunSystemCrash, e.Exc)
				return
			default:
				if c.t.DenseAsserts && e.Exc == isa.ExcIllegalInstr {
					// MARSS stops with an internal assertion on
					// undecodable/unimplemented opcodes rather than
					// delivering #UD — the Remark 8 mechanism that
					// turns corrupted instruction bytes into Asserts.
					assert(false, "decode: invalid or unimplemented opcode reached commit")
				}
				// Otherwise the architectural fault is delivered and
				// the process is killed.
				c.finish(core.RunProcessCrash, e.Exc)
				return
			}
		}

		if e.IsSyscall {
			stop := c.kern.Syscall(c.cycle, e.PC,
				func(r isa.Reg) uint64 {
					fp, a := archSlot(r)
					return c.file(fp).ReadArch(a)
				},
				func(r isa.Reg, v uint64) {
					fp, a := archSlot(r)
					c.file(fp).WriteArch(a, v)
				},
				c.kernRead)
			c.stats.Syscalls++
			c.bumpCommitted(idx)
			c.rob.PopHead()
			if stop {
				c.finish(core.RunCompleted, isa.ExcNone)
				return
			}
			if c.kern.Panicked {
				c.finish(core.RunSystemCrash, isa.ExcKernelPanic)
				return
			}
			// Syscalls serialize the pipeline.
			c.flush(e.NextPC)
			c.lastCommit = c.cycle
			return
		}

		if e.LSQIdx >= 0 {
			if e.Uop.IsStore() {
				if c.t.DenseAsserts {
					assert(c.lsq.DataValid(e.LSQIdx), "commit: store without data")
				}
				addr, size := c.lsq.Addr(e.LSQIdx)
				data := c.lsq.Data(e.LSQIdx)
				leStore(c.sbuf[:size], data)
				c.dWrite(addr, c.sbuf[:size])
				c.stats.CommittedStores++
			} else {
				c.stats.CommittedLoads++
			}
			c.lsq.Free(e.LSQIdx)
		}

		if e.Dst.Valid() {
			fp, arch := archSlot(e.ArchDst)
			c.file(fp).Commit(arch, e.Dst, e.OldDst)
		}

		if e.IsBranch {
			c.trainBranch(e)
			if e.Mispredicted {
				snap := c.rasSnaps[idx]
				c.ras.Restore(snap[0], snap[1])
				if e.BranchInfo.IsCall {
					c.ras.Push(e.NextPC)
				} else if e.BranchInfo.IsRet {
					c.ras.Pop()
				}
				target := actualNext(e)
				c.bumpCommitted(idx)
				c.rob.PopHead()
				c.flush(target)
				c.lastCommit = c.cycle
				return
			}
		}

		c.bumpCommitted(idx)
		c.rob.PopHead()
		c.lastCommit = c.cycle
	}
}

func (c *CPU) bumpCommitted(idx int) {
	c.stats.CommittedUops++
	if c.instHeads[idx] {
		c.stats.CommittedInstrs++
		if c.commitProbe != nil {
			c.commitProbe.Commit(c.rob.At(idx).PC, c.stats.CommittedInstrs-1, c.cycle)
		}
	}
}

// SetCommitProbe implements core.CommitProbed: p observes every
// committed architectural instruction from now on; nil detaches.
func (c *CPU) SetCommitProbe(p core.CommitProbe) { c.commitProbe = p }

func (c *CPU) trainBranch(e *pipeline.ROBEntry) {
	if e.HasPred {
		c.tour.Resolve(e.PC, e.Pred, e.ActualTaken)
	}
	b := e.BranchInfo
	switch {
	case b.IsRet:
		// The RAS self-maintains.
	case b.IsIndirect && c.splitBTB():
		c.btbInd.Update(e.PC, e.ActualTarget)
	default:
		// One BTB serves every branch kind by the same taken-only rule.
		if e.ActualTaken {
			c.btbDir.Update(e.PC, e.ActualTarget)
		}
	}
}

// ---- Little-endian helpers --------------------------------------------------

func leLoad(b []byte) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func leStore(b []byte, v uint64) {
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
}
