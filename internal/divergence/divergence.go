// Package divergence is the provenance layer of the differential fault
// study: per injected run it records *how* the corruption travelled, not
// just the terminal outcome class — when the architectural instruction
// stream first diverged from the golden run, how often the corrupt
// location was consumed, how long the corruption lingered, and how many
// cycles separated first consumption from divergence and from the final
// outcome. The records are what let the experiment tables explain
// MARSS/gem5 disagreements (same fault, different masking depth)
// instead of just counting them.
//
// The recording cost rides on machinery the runs already pay for:
// divergence detection folds the committed-PC stream the cores already
// produce into per-block FNV-1a hashes compared against a memoized
// golden signature (see Probe), and touch counting piggybacks on the
// bitarray observation slow path that only armed runs ever take.
//
// The package holds no records itself. A campaign that measures
// divergence keeps one Record per mask in its cell's settle ledger
// (core.CellLedger), built once when the mask settles, and the campaign
// result carries them in mask-index order; core's LogsRepo.StoreCampaign
// sorts them once by (campaign, mask ID) and writes them with
// WriteRecords.
package divergence

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion is the version stamped into every divergence record
// this build writes. Readers accept records up to this version and
// reject newer ones; records without the field (never shipped, but the
// tolerant path is uniform with the trace and journal formats) parse as
// version 0.
//
// Version history:
//
//	1 — initial format (PR 7).
const SchemaVersion = 1

// Record is one JSONL divergence-provenance row: one per injection,
// simulated or not, in (campaign, mask) order beside the injection
// trace. All fields are deterministic functions of the campaign plan
// and the simulated machines — no wall-clock values — so the file is
// byte-stable across runs, worker counts and process restarts.
type Record struct {
	SchemaVersion int `json:"schema_version,omitempty"`

	Campaign string `json:"campaign"`
	MaskID   int    `json:"mask_id"`
	Status   string `json:"status"`
	Class    string `json:"class"`

	// Cycles is the whole-run simulated cycle count.
	Cycles uint64 `json:"cycles"`

	// Observed reports that at least one read consumed the faulty
	// location; FirstObsCycle stamps the first such read. FaultTouches
	// counts every read that consumed a corrupt value and
	// LastTouchCycle the final one — together the corruption footprint
	// over time. CorruptStructures names the watched structures whose
	// faults were consumed.
	Observed          bool     `json:"observed,omitempty"`
	FirstObsCycle     uint64   `json:"first_obs_cycle,omitempty"`
	FaultTouches      uint64   `json:"fault_touches,omitempty"`
	LastTouchCycle    uint64   `json:"last_touch_cycle,omitempty"`
	CorruptStructures []string `json:"corrupt_structures,omitempty"`

	// Diverged reports that the committed-instruction stream left the
	// golden run's path; DivergeCycle is the commit cycle of the block
	// whose hash first mismatched and DivergeIndex the architectural
	// index of that block's first instruction (resolution is one
	// comparison block, see BlockSize). A run with Observed set but
	// Diverged clear was architecturally masked or corrupted data
	// without changing control flow (a data-pure SDC caught at output
	// compare).
	Diverged     bool   `json:"diverged,omitempty"`
	DivergeCycle uint64 `json:"diverge_cycle,omitempty"`
	DivergeIndex uint64 `json:"diverge_index,omitempty"`

	// PropagationCycles is the masking depth: cycles between the first
	// consumption of the corrupt value and the first architectural
	// divergence (zero unless both happened). TimeToOutcome is the
	// cycles between first consumption and the end of the run.
	PropagationCycles uint64 `json:"propagation_cycles,omitempty"`
	TimeToOutcome     uint64 `json:"time_to_outcome,omitempty"`

	// Pruned marks rows the liveness pruner settled without simulation
	// ("dead" or "replicated"); Resumed rows were loaded from the run
	// journal of an earlier process. Neither carries propagation data —
	// nothing was simulated in this process to measure.
	Pruned  string `json:"pruned,omitempty"`
	Resumed bool   `json:"resumed,omitempty"`
}

// Derive fills the derived depth fields from the primary ones: call it
// once after the primary measurements are in place.
func (r *Record) Derive() {
	r.PropagationCycles = 0
	r.TimeToOutcome = 0
	if !r.Observed {
		return
	}
	if r.Diverged && r.DivergeCycle >= r.FirstObsCycle {
		r.PropagationCycles = r.DivergeCycle - r.FirstObsCycle
	}
	if r.Cycles >= r.FirstObsCycle {
		r.TimeToOutcome = r.Cycles - r.FirstObsCycle
	}
}

// WriteRecords writes records as JSON Lines, stamping the current
// schema version into records that do not carry one.
func WriteRecords(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		rec := recs[i]
		if rec.SchemaVersion == 0 {
			rec.SchemaVersion = SchemaVersion
		}
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadRecords reads a JSONL divergence file, tolerating versionless
// records and rejecting records newer than this build understands.
func ReadRecords(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("divergence record %d: %w", len(recs), err)
		}
		if rec.SchemaVersion > SchemaVersion {
			return nil, fmt.Errorf("divergence record %d has schema version %d, this build understands <= %d",
				len(recs), rec.SchemaVersion, SchemaVersion)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}
