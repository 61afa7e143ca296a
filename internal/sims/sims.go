// Package sims wires the three evaluated tool configurations of the
// paper — MaFIN-x86, GeFIN-x86 and GeFIN-ARM (Table II) — to simulator
// factories the injection campaign controller can consume.
package sims

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/gem5"
	"repro/internal/marss"
	"repro/internal/workload"
)

// Tool names, matching the labels of the paper's figures.
const (
	MaFINX86 = "mafin-x86"
	GeFINX86 = "gefin-x86"
	GeFINARM = "gefin-arm"
)

// tools is the three configurations in the paper's bar order (M-x86,
// G-x86, G-ARM): name, bar label, the assembler target of the images
// the tool runs, and its constructor.
var tools = []struct {
	name, label string
	target      asm.Target
	boot        func(*asm.Image) core.Simulator
}{
	{MaFINX86, "M-x86", asm.TargetCISC, func(img *asm.Image) core.Simulator { return marss.New(marss.DefaultConfig(), img) }},
	{GeFINX86, "G-x86", asm.TargetCISC, func(img *asm.Image) core.Simulator { return gem5.New(gem5.DefaultConfig(gem5.ISAX86), img) }},
	{GeFINARM, "G-ARM", asm.TargetRISC, func(img *asm.Image) core.Simulator { return gem5.New(gem5.DefaultConfig(gem5.ISAARM), img) }},
}

// Tools returns the three configurations in the paper's bar order.
func Tools() []string {
	names := make([]string, len(tools))
	for i, t := range tools {
		names[i] = t.name
	}
	return names
}

// ShortLabel maps a tool name to the paper's bar label.
func ShortLabel(tool string) string {
	for _, t := range tools {
		if t.name == tool {
			return t.label
		}
	}
	return tool
}

// Factory builds a simulator factory for one tool running one benchmark.
// The image is the benchmark's per-process link (workload.Linked), shared
// by every factory of the same {benchmark, target}; every factory call
// boots a fresh machine.
func Factory(tool string, w workload.Workload) (core.Factory, error) {
	for _, t := range tools {
		if t.name != tool {
			continue
		}
		img, err := w.Linked(t.target)
		if err != nil {
			return nil, err
		}
		return func() core.Simulator { return t.boot(img) }, nil
	}
	return nil, fmt.Errorf("sims: unknown tool %q (have %v)", tool, Tools())
}
