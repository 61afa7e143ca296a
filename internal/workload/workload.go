// Package workload provides the ten MiBench-analog benchmarks of the
// paper's evaluation (§IV.B): djpeg, search, smooth, edge, corner, sha,
// fft, qsort, cjpeg and caes — re-implemented in the portable assembly IR
// so that one source compiles to both synthetic ISAs, plus a pure-Go
// reference model per benchmark that computes the expected output file.
//
// The reference models double as golden outputs for the injection
// classification and as cross-validation for the simulators: a fault-free
// run of any simulator must produce exactly the reference bytes.
package workload

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Workload is one benchmark.
type Workload struct {
	// Name matches the paper's benchmark names.
	Name string
	// Build constructs the IR program.
	Build func() *asm.Program
	// Reference computes the expected output file contents.
	Reference func() []byte

	// linked memoizes the images of a registered benchmark (nil for a
	// Workload a caller builds itself); see Linked.
	linked *linkedImages
}

// linkedImages is the per-process link of one registered benchmark, one
// image per target, each linked on first use.
type linkedImages [2]struct {
	once sync.Once
	img  *asm.Image
	err  error
}

// table is the registered benchmarks, in the paper's order of
// presentation; every copy of an entry shares its linked images.
var table = []Workload{
	{Name: "djpeg", Build: buildDJPEG, Reference: refDJPEG, linked: new(linkedImages)},
	{Name: "search", Build: buildSearch, Reference: refSearch, linked: new(linkedImages)},
	{Name: "smooth", Build: buildSmooth, Reference: refSmooth, linked: new(linkedImages)},
	{Name: "edge", Build: buildEdge, Reference: refEdge, linked: new(linkedImages)},
	{Name: "corner", Build: buildCorner, Reference: refCorner, linked: new(linkedImages)},
	{Name: "sha", Build: buildSHA, Reference: refSHA, linked: new(linkedImages)},
	{Name: "fft", Build: buildFFT, Reference: refFFT, linked: new(linkedImages)},
	{Name: "qsort", Build: buildQsort, Reference: refQsort, linked: new(linkedImages)},
	{Name: "cjpeg", Build: buildCJPEG, Reference: refCJPEG, linked: new(linkedImages)},
	{Name: "caes", Build: buildAES, Reference: refAES, linked: new(linkedImages)},
}

// All returns the ten benchmarks in the paper's order of presentation.
func All() []Workload { return append([]Workload(nil), table...) }

// Names returns the benchmark names in order.
func Names() []string {
	var ns []string
	for _, w := range All() {
		ns = append(ns, w.Name)
	}
	return ns
}

// ByName looks a benchmark up.
func ByName(name string) (Workload, error) {
	for _, w := range table {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
}

// Image builds and links the benchmark for a target ISA — a fresh image
// on every call.
func (w Workload) Image(t asm.Target) (*asm.Image, error) {
	img, err := w.Build().Build(t)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return img, nil
}

// Linked returns the benchmark's image for a target ISA, linked once per
// process for a registered benchmark (All, ByName) and shared by every
// caller; safe for concurrent use. Images are immutable once linked, so
// sharing one changes nothing a machine booted on it computes, and every
// per-image table (the interpreter's predecode registry) stays bounded by
// the benchmark table. A Workload built outside the table has no
// registered identity — its Name may collide with another's — and is
// linked afresh, as Image does.
func (w Workload) Linked(t asm.Target) (*asm.Image, error) {
	if w.linked == nil || int(t) >= len(w.linked) {
		return w.Image(t)
	}
	l := &w.linked[t]
	l.once.Do(func() { l.img, l.err = w.Image(t) })
	return l.img, l.err
}

// ---- Shared emit helpers ------------------------------------------------------

// emitWriteOut appends a write(sym, n) syscall; clobbers R0–R2.
func emitWriteOut(f *asm.Func, sym string, n int64) {
	f.MovImm(isa.R0, 1)
	f.MovSym(isa.R1, sym)
	f.MovImm(isa.R2, n)
	f.Syscall()
}

// emitExit appends exit(0); clobbers R0–R1.
func emitExit(f *asm.Func) {
	f.MovImm(isa.R0, 2)
	f.MovImm(isa.R1, 0)
	f.Syscall()
}

// ---- Deterministic input generation --------------------------------------------

// lcg is the shared input generator: a 64-bit LCG with splitmix-style
// output scrambling, evaluated in Go at build time so both ISAs and the
// reference model see identical bytes.
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed} }

func (g *lcg) next() uint64 {
	g.s = g.s*6364136223846793005 + 1442695040888963407
	z := g.s
	z ^= z >> 33
	z *= 0xff51afd7ed558ccd
	z ^= z >> 33
	return z
}

func (g *lcg) bytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(g.next())
	}
	return out
}

func le64(v uint64) []byte {
	b := make([]byte, 8)
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

func le64s(vs []int64) []byte {
	var out []byte
	for _, v := range vs {
		out = append(out, le64(uint64(v))...)
	}
	return out
}

// grayImage generates a deterministic pseudo-photographic gray image:
// smooth gradients plus texture plus a few hard geometric edges, so the
// smoothing/edge/corner kernels have meaningful features to find.
func grayImage(w, h int, seed uint64) []byte {
	g := newLCG(seed)
	img := make([]byte, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 40 + 3*x + 2*y // gradient
			if x > w/3 && x < 2*w/3 && y > h/3 && y < 2*h/3 {
				v += 90 // bright box: edges and corners
			}
			if (x+y)%7 == 0 {
				v += 12 // diagonal texture
			}
			v += int(g.next() % 9) // noise
			if v > 255 {
				v = 255
			}
			img[y*w+x] = byte(v)
		}
	}
	return img
}

// sortInt64 sorts a copy (reference model for qsort).
func sortInt64(in []int64) []int64 {
	out := make([]int64, len(in))
	copy(out, in)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
