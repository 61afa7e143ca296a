package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/asm"
	"repro/internal/handoff"
	"repro/internal/interp"
)

// defaultFFRungs is the rung count of the functional fast-forward
// ladder when the FFRungs knob is left at zero: enough rungs that the
// average window entry replays under 1/64th of the golden prefix,
// while the COW paged snapshots keep the memoized states far below
// rungs × memory size.
const defaultFFRungs = 32

// ffLadder memoizes functional-tier architectural states at quantized
// step points of a row's fault-free prefix — the functional twin of the
// detailed checkpoint ladder. windowEntry seeds from the highest rung
// at or below its entry instruction instead of replaying from boot, so
// the shared prefix is executed once per rung per row rather than once
// per mask.
//
// Determinism: the functional tier is a deterministic machine, so the
// state captured after N steps is identical whether those N steps ran
// in one slice from boot or resumed from a memoized capture at an
// earlier step (interp.Seed restores the full architectural state and
// the step count). The seeded window entry is therefore byte-identical
// to the from-boot one, which is what keeps logs, traces, divergence
// records and the journal unchanged. Captures share unchanged memory
// pages copy-on-write with the snapshot they resumed from, bounding
// ladder size.
type ffLadder struct {
	quantum  uint64 // steps between rung points; 0 disables the ladder
	noDecode bool   // build rungs with the decode cache disabled too
	// hits and builds alias the owning GoldenCache's matrix-wide
	// counters (the ff_rung telemetry gauges), bytes its row's estimate
	// of retained heap.
	hits, builds *atomic.Uint64
	bytes        *atomic.Int64

	mu    sync.Mutex
	rungs map[uint64]*handoff.State // step → capture; nil = prefix ends before step
}

func newFFLadder(quantum uint64, noDecode bool, hits, builds *atomic.Uint64, bytes *atomic.Int64) *ffLadder {
	return &ffLadder{quantum: quantum, noDecode: noDecode, hits: hits, builds: builds, bytes: bytes,
		rungs: make(map[uint64]*handoff.State)}
}

// machineAt returns a functional machine positioned at the highest rung
// step at or below entryInstr, building and memoizing any missing rung
// from the nearest memoized one below it. A nil return means no rung
// applies (ladder disabled, entry before the first rung, or the prefix
// completes before the rung point) and the caller fast-forwards from
// boot exactly as the unoptimised path does.
func (l *ffLadder) machineAt(img *asm.Image, entryInstr uint64) *interp.Machine {
	if l == nil || l.quantum == 0 {
		return nil
	}
	step := entryInstr - entryInstr%l.quantum
	if step == 0 {
		return nil
	}
	st := l.rung(img, step)
	if st == nil {
		return nil
	}
	m := interp.Seed(img, st)
	if l.noDecode {
		m.DisableDecodeCache()
	}
	return m
}

// rung returns the memoized capture at the given step, building it on
// first use. Builds hold the ladder lock: concurrent workers wanting
// the same rung would otherwise all replay the same prefix, which is
// precisely the cost the ladder exists to pay once.
func (l *ffLadder) rung(img *asm.Image, step uint64) *handoff.State {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st, ok := l.rungs[step]; ok {
		if st != nil {
			l.hits.Add(1)
		}
		return st
	}
	var fm *interp.Machine
	for s := step - l.quantum; s > 0; s -= l.quantum {
		if st := l.rungs[s]; st != nil {
			fm = interp.Seed(img, st)
			break
		}
	}
	if fm == nil {
		fm = interp.New(img)
	}
	if l.noDecode {
		fm.DisableDecodeCache()
	}
	fr := fm.Continue(step - fm.Steps())
	if fr.Outcome != interp.StepLimit {
		// The prefix completes (at functional pace) before the rung
		// point; memoize the miss so later entries skip the replay.
		fm.Release()
		l.rungs[step] = nil
		return nil
	}
	st := fm.Capture()
	fm.Release()
	l.rungs[step] = st
	l.builds.Add(1)
	l.bytes.Add(int64(st.SizeBytes()))
	return st
}
