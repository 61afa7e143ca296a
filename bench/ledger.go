package main

import (
	"fmt"
	"sort"
)

// ledgerRow attributes part of a campaign's time to one layer: a count
// of work done there (taken at the run-event boundary) times the unit
// cost the layer's probe measured, or a span the traced replay measured
// directly (count 1).
type ledgerRow struct {
	Layer    string  `json:"layer"`
	Item     string  `json:"item"`
	Count    float64 `json:"count"`
	UnitS    float64 `json:"unit_cost_s"`
	Seconds  float64 `json:"seconds"`
	Share    float64 `json:"share"`
	Measured bool    `json:"measured,omitempty"`
}

// ledger builds the workload's ledger from the replay's tally and spans
// and sets ledger.coverage_frac: the ledger's total over wall × workers.
// A faster layer can save at most its share of this table.
func (t *tracedRun) ledger(c *tally, wall float64, workers int) []ledgerRow {
	var rows []ledgerRow
	est := func(layer, item string, count, unit float64) {
		if count > 0 && unit > 0 {
			rows = append(rows, ledgerRow{Layer: layer, Item: item, Count: count, UnitS: unit, Seconds: count * unit})
		}
	}
	for _, tool := range sortedKeys(c.tools) {
		tt := c.tools[tool]
		est(layerOf(tool), "detailed cycles "+tool, float64(tt.detailCycles), t.unit["cycle."+tool])
		est(layerOf(tool), "checkpoint restores "+tool, float64(tt.restores), t.unit["restore."+tool])
		est("sims", "boots "+tool, float64(tt.simulated), t.unit["boot."+tool])
		est("interp", "functional steps "+tool, float64(tt.fastSteps), t.unit["step."+isaOf(tool)])
		est("handoff", "window entries "+tool, float64(tt.entries), t.unit["handoff.enter"])
		est("handoff", "window exits "+tool, float64(tt.exits), t.unit["handoff.exit"])
	}
	if t.w.knobs.Prune {
		est("prune", "masks planned", float64(c.masks), t.unit["plan.mask"])
	}
	est("core", "records classified", float64(c.masks), t.unit["classify"])
	if t.w.sinks || t.w.fleet {
		est("fault", "journal appends", float64(c.simulated), t.unit["journal.append"])
		est("telemetry", "run events", float64(c.masks), t.unit["event"])
	}
	// Spans the replay measured whole: sinks for the in-process
	// workloads, the service round trips for the fleet.
	measured := map[string]bool{
		"logs.open": true, "logs.store": true, "journal.close": true, "trace.flush": true,
		"submit": true, "lease": true, "complete": true, "finalize": true,
	}
	self := selfTimes(t.tr.all())
	inReplay := t.replaySpans()
	sums := map[[2]string]*ledgerRow{}
	for _, s := range t.tr.all() {
		if !measured[s.Name] || !inReplay[s.ID] {
			continue
		}
		k := [2]string{s.Layer, s.Name}
		if sums[k] == nil {
			sums[k] = &ledgerRow{Layer: s.Layer, Item: s.Name + " (span)", Measured: true}
		}
		sums[k].Count++
		sums[k].Seconds += float64(self[s.ID]) / 1e9
	}
	for _, r := range sums {
		r.UnitS = r.Seconds / r.Count
		rows = append(rows, *r)
	}
	total := 0.0
	for _, r := range rows {
		total += r.Seconds
	}
	for i := range rows {
		rows[i].Share = rows[i].Seconds / total
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Seconds != rows[j].Seconds {
			return rows[i].Seconds > rows[j].Seconds
		}
		return rows[i].Item < rows[j].Item
	})
	t.set("ledger.coverage_frac", total/(wall*float64(workers)), "ratio")
	return rows
}

// replaySpans is the set of span IDs under the campaign the ledger
// describes: the replay root for in-process workloads, the
// benchmark-as-worker campaign for the fleet.
func (t *tracedRun) replaySpans() map[int]bool {
	rootName := "replay " + t.w.name
	if t.w.fleet {
		rootName = fleetProbeSpan
	}
	in := map[int]bool{}
	for _, s := range t.tr.all() { // parents precede children
		if s.Name == rootName || in[s.Parent] {
			in[s.ID] = true
		}
	}
	return in
}

func printLayers(r *layersResult) {
	fmt.Printf("workload %s  seed %d  traced run  wall %.1fs\n", r.Workload, r.Seed, r.WallS)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		if s, ok := r.Samples[name]; ok {
			fmt.Printf("  %-36s %14.4f %-10s median of %d  [min %.4f  max %.4f]\n", name, m.Value, m.Unit, s.N, s.Min, s.Max)
		} else {
			fmt.Printf("  %-36s %14.4f %-10s\n", name, m.Value, m.Unit)
		}
	}
	fmt.Printf("ledger of %s (count × probe unit cost, or measured span)\n", r.Workload)
	fmt.Printf("  %-10s %-34s %14s %12s %9s %7s\n", "layer", "item", "count", "unit cost", "seconds", "share")
	byLayer := map[string]float64{}
	for _, row := range r.Ledger {
		fmt.Printf("  %-10s %-34s %14.0f %10.3fus %9.4f %6.1f%%\n", row.Layer, row.Item, row.Count, 1e6*row.UnitS, row.Seconds, 100*row.Share)
		byLayer[row.Layer] += row.Share
	}
	fmt.Printf("  by layer:")
	for _, l := range sortedKeys(byLayer) {
		fmt.Printf(" %s %.1f%%", l, 100*byLayer[l])
	}
	fmt.Printf("\n  ledger.coverage_frac %.4f\n", r.Metrics["ledger.coverage_frac"].Value)
}
