package interp_test

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/handoff"
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/workload"
)

// TestDecodeCacheEquivalence runs every workload on both ISAs with the
// predecoded-instruction cache on and off: the cache is a pure dispatch
// optimisation, so outcome, exit code, output, and the step and uop
// counts must be identical.
func TestDecodeCacheEquivalence(t *testing.T) {
	for _, w := range workload.All() {
		for _, tgt := range []asm.Target{asm.TargetCISC, asm.TargetRISC} {
			w, tgt := w, tgt
			t.Run(w.Name+"/"+tgt.String(), func(t *testing.T) {
				t.Parallel()
				img, err := w.Image(tgt)
				if err != nil {
					t.Fatal(err)
				}
				const budget = uint64(1) << 62
				cached := interp.New(img).Continue(budget)
				slow := interp.New(img)
				slow.DisableDecodeCache()
				ref := slow.Continue(budget)

				if cached.Outcome != ref.Outcome {
					t.Fatalf("outcome %v with cache, %v without", cached.Outcome, ref.Outcome)
				}
				if cached.ExitCode != ref.ExitCode {
					t.Fatalf("exit code %d with cache, %d without", cached.ExitCode, ref.ExitCode)
				}
				if !bytes.Equal(cached.Output, ref.Output) {
					t.Fatalf("output differs: %d bytes with cache, %d without", len(cached.Output), len(ref.Output))
				}
				if cached.Steps != ref.Steps || cached.Uops != ref.Uops {
					t.Fatalf("work differs: %d steps / %d uops with cache, %d / %d without",
						cached.Steps, cached.Uops, ref.Steps, ref.Uops)
				}
			})
		}
	}
}

// FuzzPredecodeMatchesDecode holds the predecoded-instruction cache to
// the slow Fetch+Decode path on arbitrary text: the input is the text
// bytes, the ISA (arm or x86) and the entry offset from the text base,
// which may land mid-instruction, on an instruction straddling the text
// end or past the text altogether. Run under a step budget with the
// cache on and off, the machine must end with the same outcome, exit
// code, fatal exception, output, step and uop counts and architectural
// state (handoff.Equal on the final captures). Unlike
// TestDecodeCacheEquivalence's workloads, arbitrary text reaches wild
// PCs, undecodable bytes and the text end. The committed corpus holds,
// per ISA, a workload prefix cut inside an instruction entered at that
// instruction, a mid-instruction entry and an entry past the text end.
func FuzzPredecodeMatchesDecode(f *testing.F) {
	const (
		maxText = 4096
		budget  = 4096
	)
	f.Fuzz(func(t *testing.T, text []byte, arm bool, entry uint16) {
		if len(text) > maxText {
			text = text[:maxText]
		}
		img := &asm.Image{ISA: "x86", Text: text, TextBase: mem.TextBase, Entry: mem.TextBase + uint64(entry), DataBase: asm.DataBase}
		if arm {
			img.ISA = "arm"
		}
		defer interp.ForgetDecodeCache(img)
		run := func(cache bool) (interp.Result, *handoff.State) {
			m := interp.New(img)
			if !cache {
				m.DisableDecodeCache()
			}
			r := m.Continue(budget)
			st := m.Capture()
			m.Release()
			return r, st
		}
		cached, cachedSt := run(true)
		ref, refSt := run(false)
		if cached.Outcome != ref.Outcome || cached.ExitCode != ref.ExitCode || cached.FatalExc != ref.FatalExc {
			t.Fatalf("%s entry %d: %v (exit %d, exception %v) with cache, %v (exit %d, exception %v) without",
				img.ISA, entry, cached.Outcome, cached.ExitCode, cached.FatalExc, ref.Outcome, ref.ExitCode, ref.FatalExc)
		}
		if !bytes.Equal(cached.Output, ref.Output) {
			t.Fatalf("%s entry %d: output differs: %d bytes with cache, %d without", img.ISA, entry, len(cached.Output), len(ref.Output))
		}
		if cached.Steps != ref.Steps || cached.Uops != ref.Uops {
			t.Fatalf("%s entry %d: %d steps / %d uops with cache, %d / %d without",
				img.ISA, entry, cached.Steps, cached.Uops, ref.Steps, ref.Uops)
		}
		if err := handoff.Equal(cachedSt, refSt); err != nil {
			t.Fatalf("%s entry %d: final state differs: %v", img.ISA, entry, err)
		}
	})
}
