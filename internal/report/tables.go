package report

import (
	"fmt"
	"io"

	"repro/internal/gem5"
	"repro/internal/marss"
)

// RenderConfigTable reproduces Table II: the three simulator
// configurations side by side.
func RenderConfigTable(w io.Writer) {
	m := marss.DefaultConfig()
	gx := gem5.DefaultConfig(gem5.ISAX86)
	ga := gem5.DefaultConfig(gem5.ISAARM)
	mt, gt := marss.Traits(), gem5.Traits()
	fmt.Fprintln(w, "Table II analog: simulator configurations")
	fmt.Fprintf(w, "  %-22s %-22s %-22s %-22s\n", "Parameter", "MARSS/x86", "Gem5/x86", "Gem5/ARM")
	row := func(name string, a, b, c interface{}) {
		fmt.Fprintf(w, "  %-22s %-22v %-22v %-22v\n", name, a, b, c)
	}
	row("Pipeline", "OoO", "OoO", "OoO")
	row("Int physical regs", m.IntPhysRegs, gx.IntPhysRegs, ga.IntPhysRegs)
	row("FP physical regs", m.FPPhysRegs, gx.FPPhysRegs, ga.FPPhysRegs)
	row("Issue queue", m.IQEntries, gx.IQEntries, ga.IQEntries)
	row("Load/store queue",
		fmt.Sprintf("%d (unified)", m.LSQEntries),
		fmt.Sprintf("%d load / %d store", gx.LoadEntries, gx.StoreEntries),
		fmt.Sprintf("%d load / %d store", ga.LoadEntries, ga.StoreEntries))
	row("ROB entries", m.ROBEntries, gx.ROBEntries, ga.ROBEntries)
	row("Functional units",
		fmt.Sprintf("%d int, %d FP, %d AGU", m.IntALUs, m.FPALUs, m.MemPorts),
		fmt.Sprintf("%d int, %d FP, %d mem", gx.IntALUs, gx.FPALUs, gx.MemPorts),
		fmt.Sprintf("%d int, %d FP, %d mem", ga.IntALUs, ga.FPALUs, ga.MemPorts))
	cc := func(size, line, ways int) string {
		return fmt.Sprintf("%dKB %dB/line %d-way", size>>10, line, ways)
	}
	row("L1 I-cache", cc(m.L1I.Size, m.L1I.LineSize, m.L1I.Ways),
		cc(gx.L1I.Size, gx.L1I.LineSize, gx.L1I.Ways), cc(ga.L1I.Size, ga.L1I.LineSize, ga.L1I.Ways))
	row("L1 D-cache", cc(m.L1D.Size, m.L1D.LineSize, m.L1D.Ways),
		cc(gx.L1D.Size, gx.L1D.LineSize, gx.L1D.Ways), cc(ga.L1D.Size, ga.L1D.LineSize, ga.L1D.Ways))
	row("L2 cache", cc(m.L2.Size, m.L2.LineSize, m.L2.Ways),
		cc(gx.L2.Size, gx.L2.LineSize, gx.L2.Ways), cc(ga.L2.Size, ga.L2.LineSize, ga.L2.Ways))
	// choice prints a row that describes a design difference, read from
	// what the machines are built from — a cache configuration or the
	// tools' trait tables — so the table cannot disagree with the code.
	choice := func(name, yes, no string, a, b, c bool) {
		pick := func(on bool) string {
			if on {
				return yes
			}
			return no
		}
		row(name, pick(a), pick(b), pick(c))
	}
	choice("Write policy", "dual-copy (QEMU-backed)", "write-back", m.L1D.DualCopy, gx.L1D.DualCopy, ga.L1D.DualCopy)
	choice("Branch predictor", "tournament (by address)", "tournament (by history)",
		mt.ChoiceByAddress, gt.ChoiceByAddress, gt.ChoiceByAddress)
	row("BTB",
		fmt.Sprintf("direct %d 4-way + indirect %d 4-way", m.BTBDirEntries, m.BTBIndEntries),
		fmt.Sprintf("%d direct-mapped", gx.BTBEntries),
		fmt.Sprintf("%d direct-mapped", ga.BTBEntries))
	row("RAS", m.RASEntries, gx.RASEntries, ga.RASEntries)
	row("Prefetchers", "L1I + L1D next-line", "none", "none")
	choice("Load issue", "aggressive + replay", "conservative",
		mt.SpeculativeLoads, gt.SpeculativeLoads, gt.SpeculativeLoads)
	choice("Syscall path", "hypervisor (memory)", "through caches",
		mt.HypervisorSyscalls, gt.HypervisorSyscalls, gt.HypervisorSyscalls)
}

// RenderFaultModels reproduces Table III: the supported fault models.
func RenderFaultModels(w io.Writer) {
	fmt.Fprintln(w, "Table III analog: fault models")
	fmt.Fprintln(w, "  transient    a storage bit is flipped at a clock cycle; bit position and")
	fmt.Fprintln(w, "               cycle arbitrary (random or directed)")
	fmt.Fprintln(w, "  intermittent a storage bit is forced to 0 or 1 from a start cycle for an")
	fmt.Fprintln(w, "               arbitrary number of cycles")
	fmt.Fprintln(w, "  permanent    a storage bit is permanently forced to 0 or 1")
	fmt.Fprintln(w, "  multiplicity single faults, multiple bits of one entry, multiple entries,")
	fmt.Fprintln(w, "               multiple structures, and combinations (fault.MultiStructure)")
}
