package divergence

import (
	"bytes"
	"strings"
	"testing"
)

// goldenStream is a synthetic committed-PC stream: pc(i) = 0x1000 + 4i,
// cycle(i) = 3i. n is the committed-instruction count.
func goldenStream(n int) []uint64 {
	pcs := make([]uint64, n)
	for i := range pcs {
		pcs[i] = 0x1000 + uint64(i)*4
	}
	return pcs
}

func buildSignature(pcs []uint64) Signature {
	b := NewSignatureBuilder()
	for i, pc := range pcs {
		b.Commit(pc, uint64(i), uint64(i)*3)
	}
	return b.Signature()
}

// TestSignatureShape pins the block math: complete blocks are hashed,
// the trailing partial block is dropped, the committed count is exact.
func TestSignatureShape(t *testing.T) {
	const n = 5*BlockSize + 17
	sig := buildSignature(goldenStream(n))
	if sig.BlockSize != BlockSize {
		t.Fatalf("BlockSize = %d, want %d", sig.BlockSize, BlockSize)
	}
	if sig.Blocks() != 5 {
		t.Fatalf("Blocks() = %d, want 5 (trailing partial dropped)", sig.Blocks())
	}
	if sig.Committed != n {
		t.Fatalf("Committed = %d, want %d", sig.Committed, n)
	}
}

// TestProbeMatchingStream: replaying the exact golden stream through a
// probe must not report divergence.
func TestProbeMatchingStream(t *testing.T) {
	pcs := goldenStream(4*BlockSize + 9)
	sig := buildSignature(pcs)
	p := NewProbe(&sig)
	for i, pc := range pcs {
		p.Commit(pc, uint64(i), uint64(i)*3)
	}
	if div, _, _ := p.Diverged(); div {
		t.Fatal("identical stream reported as diverged")
	}
}

// TestProbeDetectsDivergence flips one PC and checks the probe locates
// the divergence to the containing block (index of the block's first
// instruction, cycle of the instruction that completed the block).
func TestProbeDetectsDivergence(t *testing.T) {
	pcs := goldenStream(6 * BlockSize)
	sig := buildSignature(pcs)
	const bad = 3*BlockSize + 11 // inside block 3
	pcs[bad] ^= 0x40

	p := NewProbe(&sig)
	for i, pc := range pcs {
		p.Commit(pc, uint64(i), uint64(i)*3)
	}
	div, cycle, index := p.Diverged()
	if !div {
		t.Fatal("corrupted stream not reported as diverged")
	}
	if want := uint64(3 * BlockSize); index != want {
		t.Fatalf("DivergeIndex = %d, want %d (first instruction of the mismatching block)", index, want)
	}
	// The block completes at committed index 4*BlockSize-1.
	if want := uint64(4*BlockSize-1) * 3; cycle != want {
		t.Fatalf("DivergeCycle = %d, want %d", cycle, want)
	}
}

// TestProbeMidStreamAttach: a probe attached mid-block (a checkpoint
// restore or window seed resumes at an arbitrary committed index) must
// skip the partial block — even a corruption inside it is invisible —
// and compare cleanly from the next boundary.
func TestProbeMidStreamAttach(t *testing.T) {
	pcs := goldenStream(5 * BlockSize)
	sig := buildSignature(pcs)

	// Attach at an unaligned index; corrupt a PC inside the skipped
	// partial block. The probe must not flag it (that block is never
	// compared) and must not misalign the following blocks.
	start := 2*BlockSize + 7
	stream := append([]uint64(nil), pcs...)
	stream[start+3] ^= 0xff
	p := NewProbe(&sig)
	for i := start; i < len(stream); i++ {
		p.Commit(stream[i], uint64(i), uint64(i)*3)
	}
	if div, _, _ := p.Diverged(); div {
		t.Fatal("corruption inside the skipped partial block reported as divergence")
	}

	// Same attach point, corruption in the first fully observed block:
	// that one must be caught.
	stream = append([]uint64(nil), pcs...)
	stream[3*BlockSize+5] ^= 0xff
	p = NewProbe(&sig)
	for i := start; i < len(stream); i++ {
		p.Commit(stream[i], uint64(i), uint64(i)*3)
	}
	div, _, index := p.Diverged()
	if !div {
		t.Fatal("corruption after mid-stream attach not detected")
	}
	if want := uint64(3 * BlockSize); index != want {
		t.Fatalf("DivergeIndex = %d, want %d", index, want)
	}
}

// TestProbeLongerStream: a run that commits a complete block past the
// golden run's last block is a different stream even if every shared
// block matched.
func TestProbeLongerStream(t *testing.T) {
	pcs := goldenStream(3 * BlockSize)
	sig := buildSignature(pcs)
	p := NewProbe(&sig)
	long := goldenStream(4 * BlockSize) // same prefix, one extra block
	for i, pc := range long {
		p.Commit(pc, uint64(i), uint64(i)*3)
	}
	div, _, index := p.Diverged()
	if !div {
		t.Fatal("overlong stream not reported as diverged")
	}
	if want := uint64(3 * BlockSize); index != want {
		t.Fatalf("DivergeIndex = %d, want %d (first block past the golden stream)", index, want)
	}
}

// TestDerive pins the derived masking-depth fields and their
// idempotence.
func TestDerive(t *testing.T) {
	r := Record{
		Cycles:        1000,
		Observed:      true,
		FirstObsCycle: 100,
		Diverged:      true,
		DivergeCycle:  350,
	}
	r.Derive()
	if r.PropagationCycles != 250 || r.TimeToOutcome != 900 {
		t.Fatalf("propagation/time-to-outcome = %d/%d, want 250/900", r.PropagationCycles, r.TimeToOutcome)
	}
	r.Derive() // idempotent: recomputes from primaries, never accumulates
	if r.PropagationCycles != 250 || r.TimeToOutcome != 900 {
		t.Fatalf("Derive is not idempotent: %+v", r)
	}

	unobserved := Record{Cycles: 1000, Diverged: true, DivergeCycle: 350}
	unobserved.Derive()
	if unobserved.PropagationCycles != 0 || unobserved.TimeToOutcome != 0 {
		t.Fatalf("unobserved run carries depth fields: %+v", unobserved)
	}
}

// TestWriteReadRecords checks the JSONL round trip: version stamping on
// write, tolerance for versionless rows, rejection of newer versions.
func TestWriteReadRecords(t *testing.T) {
	recs := []Record{
		{Campaign: "a", MaskID: 0, Status: "completed", Class: "Masked", Cycles: 10},
		{Campaign: "a", MaskID: 1, Status: "completed", Class: "SDC", Cycles: 20,
			Observed: true, FirstObsCycle: 5, Diverged: true, DivergeCycle: 12},
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema_version":1`) {
		t.Fatalf("written records lack the schema version: %s", buf.String())
	}
	back, err := ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].DivergeCycle != 12 || back[1].Class != "SDC" {
		t.Fatalf("round trip lost fields: %+v", back)
	}

	// Versionless rows (older files) parse; newer versions are refused.
	if recs, err := ReadRecords(strings.NewReader(`{"campaign":"a","mask_id":0,"status":"completed","class":"Masked","cycles":1}` + "\n")); err != nil || len(recs) != 1 {
		t.Fatalf("versionless record rejected: %v", err)
	}
	if _, err := ReadRecords(strings.NewReader(`{"schema_version":99,"campaign":"a","mask_id":0}` + "\n")); err == nil {
		t.Fatal("record from a newer schema accepted")
	}
}

// TestAggregate hand-builds records and checks the propagation table
// row math, including the pruned/resumed skip.
func TestAggregate(t *testing.T) {
	recs := []Record{
		// Observed + diverged, propagation 100, outcome 500.
		{Campaign: "k", Class: "SDC", Cycles: 600, Observed: true, FirstObsCycle: 100,
			FaultTouches: 4, Diverged: true, DivergeCycle: 200, PropagationCycles: 100, TimeToOutcome: 500},
		// Observed + diverged, propagation 300.
		{Campaign: "k", Class: "DUE", Cycles: 900, Observed: true, FirstObsCycle: 100,
			FaultTouches: 2, Diverged: true, DivergeCycle: 400, PropagationCycles: 300, TimeToOutcome: 800},
		// Observed, never diverged, classified Masked: the masking-depth row.
		{Campaign: "k", Class: "Masked", Cycles: 600, Observed: true, FirstObsCycle: 50,
			FaultTouches: 6, TimeToOutcome: 550},
		// Never observed.
		{Campaign: "k", Class: "Masked", Cycles: 600},
		// Pruned and resumed rows carry no measurements: skipped.
		{Campaign: "k", Class: "Masked", Pruned: "dead"},
		{Campaign: "k", Class: "SDC", Resumed: true},
	}
	rows := Aggregate(recs)
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.Runs != 4 || r.Observed != 3 || r.Diverged != 2 || r.MaskedAfterTouch != 1 {
		t.Fatalf("runs/obs/div/masked = %d/%d/%d/%d, want 4/3/2/1", r.Runs, r.Observed, r.Diverged, r.MaskedAfterTouch)
	}
	if r.PropagationP50 != 100 || r.PropagationMax != 300 {
		t.Fatalf("propagation p50/max = %d/%d, want 100/300", r.PropagationP50, r.PropagationMax)
	}
	if want := (4 + 2 + 6.0) / 3; r.MeanTouches != want {
		t.Fatalf("MeanTouches = %v, want %v", r.MeanTouches, want)
	}

	var buf bytes.Buffer
	if err := WriteTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "campaign") || !strings.Contains(buf.String(), "k") {
		t.Fatalf("table output: %s", buf.String())
	}
}
