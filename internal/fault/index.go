package fault

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// OutcomeIndexSchemaVersion stamps indexed outcome files so future
// readers can tell old breakdowns from new ones.
const OutcomeIndexSchemaVersion = 1

// AdaptiveIndexSummary is the indexed form of a cell's adaptive
// early-stopping trailer.
type AdaptiveIndexSummary struct {
	StoppedEarly    bool    `json:"stopped_early"`
	SimulatedRuns   int     `json:"simulated_runs"`
	PlannedRuns     int     `json:"planned_runs"`
	EffectiveMargin float64 `json:"effective_margin"`
	Confidence      float64 `json:"confidence,omitempty"`
}

// DivergenceIndexSummary is the indexed aggregate of a cell's
// divergence records: how many faulty runs architecturally diverged
// from the golden run, and how fast corruption propagated.
type DivergenceIndexSummary struct {
	Records               int     `json:"records"`
	Diverged              int     `json:"diverged"`
	MeanPropagationCycles float64 `json:"mean_propagation_cycles,omitempty"`
	MeanTimeToOutcome     float64 `json:"mean_time_to_outcome,omitempty"`
}

// OutcomeIndex is one campaign cell's aggregated outcome breakdown —
// everything GET /v1/campaigns/{id}/results serves without re-reading
// the cell's JSONL logs. It is pure data: the campaign service computes
// the numbers from the run records at finalize time and stores them
// here.
type OutcomeIndex struct {
	SchemaVersion int    `json:"schema_version"`
	Key           string `json:"key"`
	Tool          string `json:"tool"`
	Benchmark     string `json:"benchmark"`
	Structure     string `json:"structure"`

	// Runs counts committed run records; WeightSum is the census cycle
	// mass behind them (equal to Runs when sampling is uniform).
	Runs      int     `json:"runs"`
	WeightSum float64 `json:"weight_sum,omitempty"`

	// Statuses and Classes count records per terminal status and per
	// outcome class; Shares and WeightedShares are the matching
	// fractions of Runs and WeightSum.
	Statuses       map[string]int     `json:"statuses,omitempty"`
	Classes        map[string]int     `json:"classes,omitempty"`
	Shares         map[string]float64 `json:"shares,omitempty"`
	WeightedShares map[string]float64 `json:"weighted_shares,omitempty"`

	// Vulnerability is the weighted share of runs whose fault was not
	// masked (the paper's vulnerability estimate for the cell).
	Vulnerability float64 `json:"vulnerability"`

	Adaptive   *AdaptiveIndexSummary   `json:"adaptive,omitempty"`
	Divergence *DivergenceIndexSummary `json:"divergence,omitempty"`
}

// ResultIndex is the on-disk index of finished campaigns' outcome
// breakdowns: one JSON file per campaign ID holding its []OutcomeIndex,
// written atomically so a crash never leaves a torn index.
type ResultIndex struct {
	dir string
}

// NewResultIndex opens (creating if needed) a result index rooted at dir.
func NewResultIndex(dir string) (*ResultIndex, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fault: creating result index: %w", err)
	}
	return &ResultIndex{dir: dir}, nil
}

// Dir returns the index root directory.
func (x *ResultIndex) Dir() string { return x.dir }

func (x *ResultIndex) indexFile(id string) string {
	return filepath.Join(x.dir, id+".index.json")
}

// Store writes (atomically, replacing) the indexed cells of a campaign.
func (x *ResultIndex) Store(id string, cells []OutcomeIndex) error {
	err := AtomicWrite(x.indexFile(id), func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(cells)
	})
	if err != nil {
		return fmt.Errorf("fault: storing result index for %s: %w", id, err)
	}
	return nil
}

// Load reads the indexed cells of a campaign.
func (x *ResultIndex) Load(id string) ([]OutcomeIndex, error) {
	b, err := os.ReadFile(x.indexFile(id))
	if err != nil {
		return nil, fmt.Errorf("fault: loading result index for %s: %w", id, err)
	}
	var cells []OutcomeIndex
	if err := json.Unmarshal(b, &cells); err != nil {
		return nil, fmt.Errorf("fault: loading result index for %s: %w", id, err)
	}
	return cells, nil
}

// Has reports whether an index exists for the campaign ID.
func (x *ResultIndex) Has(id string) bool {
	_, err := os.Stat(x.indexFile(id))
	return err == nil
}

// List returns the indexed campaign IDs in sorted order.
func (x *ResultIndex) List() ([]string, error) {
	ents, err := os.ReadDir(x.dir)
	if err != nil {
		return nil, fmt.Errorf("fault: listing result index: %w", err)
	}
	var ids []string
	for _, e := range ents {
		name := e.Name()
		const suffix = ".index.json"
		if strings.HasSuffix(name, suffix) && len(name) > len(suffix) {
			ids = append(ids, strings.TrimSuffix(name, suffix))
		}
	}
	sort.Strings(ids)
	return ids, nil
}
