// Command smokecheck cross-checks the three artifacts of one telemetry-
// enabled campaign — the stored logs, the final snapshot JSON, and the
// JSONL injection trace — against each other (the CI smoke job's
// assertion step):
//
//   - the snapshot JSON parses and its run totals balance,
//   - the snapshot's outcome histogram equals what the offline parser
//     computes from the stored records,
//   - the trace has exactly one row per injection, in (campaign, mask)
//     order, with classes matching the offline parser record-for-record,
//   - prune provenance is consistent: dead-pruned rows classify Masked,
//     replicated rows name a representative with the same class, and the
//     snapshot's prune counters equal the trace's flagged-row counts
//     (with -prune additionally asserting that pruning happened at all),
//   - early-stop provenance is consistent: rows the sequential stopping
//     rule cancelled are flagged in the trace, classify as the Stopped
//     pseudo-class, carry no simulation results, and match the
//     snapshot's stopped-run and stopped-cell counters (with -adaptive
//     additionally asserting the rule fired at all),
//   - with -window, the snapshot shows detail-window execution actually
//     happened: windowed runs with functional-tier entries and fast-tier
//     instructions, and internally consistent window counters,
//   - with -journal, the durable run journal carries exactly one entry
//     per simulated (non-pruned) injection, each labeled with the
//     campaign key and byte-equivalent to the stored log record, and
//     with -want-resumed the snapshot reports at least one run loaded
//     from the journal rather than re-simulated,
//   - with -divergence, the divergence-provenance JSONL (schema-version
//     aware: versionless rows from older builds parse, newer versions
//     are refused) carries one row per injection in (campaign, mask)
//     order with classes matching the offline parser, pruned/resumed
//     stubs carrying no measurements, and the derived masking-depth
//     fields recomputable from the primary ones,
//   - with -spans, the span trace parses under its version gate, forms
//     one well-parented tree per trace ID, and carries one run span per
//     simulated injection,
//   - with -fleet, the coordinator's fleet-aggregated snapshot equals
//     the merge of the per-worker snapshots named by -worker-snaps and
//     its run total matches the stored logs.
//
// A second, live mode (-live URL) probes a running coordinator's
// observability plane instead of offline artifacts: /v1/snapshot.json and
// /v1/metrics must serve the aggregate, and an SSE subscription to /v1/events
// must open with a coherent "snapshot" frame and then stream at least
// -min-run-frames "run" and -min-span-frames "span" frames.
//
// Usage:
//
//	smokecheck -logs logsrepo -key gefin-x86__qsort__rf.int \
//	           -snapshot snap.json [-trace logsrepo/<key>.trace.jsonl] [-prune]
//	           [-journal [-want-resumed]] [-divergence [-divergence-table]] [-spans]
//	           [-fleet fleet.json -worker-snaps w1.json,w2.json]
//	smokecheck -live http://127.0.0.1:8400 -min-run-frames 5 -min-span-frames 5
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/svc"
	"repro/internal/telemetry"
)

func main() {
	logsDir := flag.String("logs", "", "logs repository directory")
	key := flag.String("key", "", "campaign key to check")
	snapPath := flag.String("snapshot", "", "final snapshot JSON file")
	tracePath := flag.String("trace", "", "JSONL injection trace (default <logs>/<key>.trace.jsonl)")
	wantPrune := flag.Bool("prune", false, "assert the campaign was pruned (nonzero dead or replicated rows)")
	wantAdaptive := flag.Bool("adaptive", false, "assert the sequential stopping rule fired (stopped-early rows with coherent counters)")
	wantWindow := flag.Bool("window", false, "assert the campaign ran under a detail window (windowed runs, entries, at least one exit, fast-tier work)")
	wantJournal := flag.Bool("journal", false, "validate the run journal against the logs and trace")
	wantResumed := flag.Bool("want-resumed", false, "assert the snapshot reports runs resumed from the journal")
	wantDivergence := flag.Bool("divergence", false, "validate the divergence-provenance JSONL against the logs and trace")
	divTable := flag.Bool("divergence-table", false, "with -divergence: print the aggregated propagation table (the EXPERIMENTS.md format)")
	wantSpans := flag.Bool("spans", false, "validate the span trace (<logs>/<key>.spans.jsonl)")
	fleetPath := flag.String("fleet", "", "fleet-aggregated snapshot JSON to check against -worker-snaps and the logs")
	workerSnaps := flag.String("worker-snaps", "", "comma-separated per-worker snapshot JSON files (with -fleet)")
	liveURL := flag.String("live", "", "probe a running coordinator's observability plane at this base URL instead of offline artifacts")
	minRunFrames := flag.Int("min-run-frames", 1, "with -live: minimum SSE run frames to require")
	minSpanFrames := flag.Int("min-span-frames", 0, "with -live: minimum SSE span frames to require")
	liveTimeout := flag.Duration("live-timeout", 2*time.Minute, "with -live: overall deadline for the probe")
	servicePairs := flag.String("service", "", "validate campaign-service durable state: comma-separated id=state pairs (with -spool and -index)")
	spoolDir := flag.String("spool", "", "with -service: the daemon's campaign spool directory")
	indexDir := flag.String("index", "", "with -service: the daemon's result index directory")
	flag.Parse()
	if *liveURL != "" {
		checkLive(*liveURL, *minRunFrames, *minSpanFrames, *liveTimeout)
		return
	}
	if *servicePairs != "" {
		checkService(*spoolDir, *indexDir, *servicePairs)
		return
	}
	if *logsDir == "" || *key == "" || *snapPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	repo, err := core.NewLogsRepo(*logsDir)
	if err != nil {
		fatal(err)
	}
	res, err := repo.Load(*key)
	if err != nil {
		fatal(err)
	}
	breakdown := (core.Parser{}).ParseAll(res.Records)

	b, err := os.ReadFile(*snapPath)
	if err != nil {
		fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		fatal(fmt.Errorf("snapshot JSON does not parse: %w", err))
	}

	n := uint64(len(res.Records))
	if snap.RunsDone != n || snap.RunsStarted != n || snap.RunsQueued != n {
		fatal(fmt.Errorf("snapshot run totals %d/%d/%d queued/started/done, logs have %d records",
			snap.RunsQueued, snap.RunsStarted, snap.RunsDone, n))
	}
	var sum uint64
	for _, c := range snap.ClassCounts {
		sum += c
	}
	if sum != n {
		fatal(fmt.Errorf("snapshot classes sum to %d, want %d", sum, n))
	}
	if len(snap.ClassCounts) != len(breakdown.Counts) {
		fatal(fmt.Errorf("snapshot has %d classes, parser %d: %v vs %v",
			len(snap.ClassCounts), len(breakdown.Counts), snap.ClassCounts, breakdown.Counts))
	}
	for cls, want := range breakdown.Counts {
		if got := snap.ClassCounts[string(cls)]; got != uint64(want) {
			fatal(fmt.Errorf("snapshot class %s = %d, parser says %d", cls, got, want))
		}
	}

	path := *tracePath
	if path == "" {
		path = repo.TracePath(*key)
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	recs, err := fault.ReadTrace(f)
	if err != nil {
		fatal(err)
	}
	if len(recs) != len(res.Records) {
		fatal(fmt.Errorf("trace has %d rows, logs have %d records", len(recs), len(res.Records)))
	}
	for i, tr := range recs {
		if tr.MaskID != res.Records[i].MaskID {
			fatal(fmt.Errorf("trace row %d is mask %d, logs row is mask %d (order broken)",
				i, tr.MaskID, res.Records[i].MaskID))
		}
		cls, _ := (core.Parser{}).Classify(res.Records[i])
		if tr.Class != string(cls) {
			fatal(fmt.Errorf("trace row %d class %q, parser says %q", i, tr.Class, cls))
		}
	}

	rowOf := make(map[int]int, len(recs))
	for i, tr := range recs {
		rowOf[tr.MaskID] = i
	}
	var dead, replicated, stopped uint64
	for i, tr := range recs {
		// Early-stop provenance: a trace row flagged Stopped must be an
		// unsimulated cancellation (no prune verdict, no cycles) and must
		// agree with the offline parser's pseudo-class, and vice versa.
		if cls, _ := (core.Parser{}).Classify(res.Records[i]); tr.Stopped != (cls == core.ClassStopped) {
			fatal(fmt.Errorf("trace row %d stopped flag %v, parser classifies %q", i, tr.Stopped, cls))
		}
		if tr.Stopped {
			stopped++
			if tr.Pruned != "" || tr.Cycles != 0 {
				fatal(fmt.Errorf("trace row %d is stopped-early but carries simulation provenance: %+v", i, tr))
			}
			continue
		}
		switch tr.Pruned {
		case "":
			if tr.RepMask != nil {
				fatal(fmt.Errorf("trace row %d is simulated but names representative %d", i, *tr.RepMask))
			}
		case "dead":
			dead++
			if tr.Class != string(core.ClassMasked) {
				fatal(fmt.Errorf("trace row %d is dead-pruned but classifies %q", i, tr.Class))
			}
		case "replicated":
			replicated++
			if tr.RepMask == nil {
				fatal(fmt.Errorf("trace row %d is replicated but names no representative", i))
			}
			r, ok := rowOf[*tr.RepMask]
			if !ok {
				fatal(fmt.Errorf("trace row %d replicates mask %d, which has no trace row", i, *tr.RepMask))
			}
			if rep := recs[r]; rep.Pruned != "" {
				fatal(fmt.Errorf("trace row %d replicates mask %d, itself pruned %q", i, *tr.RepMask, rep.Pruned))
			} else if rep.Class != tr.Class {
				fatal(fmt.Errorf("trace row %d class %q differs from its representative's %q", i, tr.Class, rep.Class))
			}
		default:
			fatal(fmt.Errorf("trace row %d has unknown prune flag %q", i, tr.Pruned))
		}
	}
	if snap.PrunedDead != dead || snap.PrunedReplicated != replicated {
		fatal(fmt.Errorf("snapshot prune counters %d dead + %d replicated, trace has %d + %d",
			snap.PrunedDead, snap.PrunedReplicated, dead, replicated))
	}
	if *wantPrune && dead+replicated == 0 {
		fatal(fmt.Errorf("-prune: campaign was not pruned at all"))
	}
	if snap.StoppedRuns != stopped {
		fatal(fmt.Errorf("snapshot counts %d stopped runs, trace has %d stopped rows", snap.StoppedRuns, stopped))
	}
	if stopped > 0 {
		if snap.CellsStoppedEarly == 0 {
			fatal(fmt.Errorf("trace has %d stopped rows but the snapshot counts no stopped cells", stopped))
		}
		if !(snap.EffectiveMargin > 0 && snap.EffectiveMargin < 1) {
			fatal(fmt.Errorf("stopped campaign's effective margin %g outside (0, 1)", snap.EffectiveMargin))
		}
	}
	if *wantAdaptive && stopped == 0 {
		fatal(fmt.Errorf("-adaptive: the stopping rule never fired (no stopped-early rows)"))
	}

	if snap.WindowExits+snap.WindowHolds > snap.WindowedRuns || snap.WindowEntries > snap.WindowedRuns {
		fatal(fmt.Errorf("window counters inconsistent: %d exits, %d holds, %d entries, %d windowed runs",
			snap.WindowExits, snap.WindowHolds, snap.WindowEntries, snap.WindowedRuns))
	}
	if *wantWindow {
		if snap.WindowedRuns == 0 || snap.WindowEntries == 0 {
			fatal(fmt.Errorf("-window: campaign ran no detail windows (%d windowed, %d entries)",
				snap.WindowedRuns, snap.WindowEntries))
		}
		if snap.FastSteps == 0 || snap.FastTierShare <= 0 || snap.FastTierShare > 1 {
			fatal(fmt.Errorf("-window: no fast-tier work recorded (%d instrs, share %g)",
				snap.FastSteps, snap.FastTierShare))
		}
		if snap.WindowExits == 0 {
			fatal(fmt.Errorf("-window: none of %d windowed runs closed its window (%d held open to the end)",
				snap.WindowedRuns, snap.WindowHolds))
		}
	}

	var journaled int
	if *wantJournal {
		entries, err := fault.ReadJournalFile(repo.JournalPath(*key))
		if err != nil {
			fatal(err)
		}
		recOf := make(map[int]core.LogRecord, len(res.Records))
		for _, rec := range res.Records {
			recOf[rec.MaskID] = rec
		}
		seen := make(map[int]bool, len(entries))
		for i, e := range entries {
			if e.Campaign != *key {
				fatal(fmt.Errorf("journal entry %d belongs to campaign %q, want %q", i, e.Campaign, *key))
			}
			if seen[e.MaskID] {
				fatal(fmt.Errorf("journal holds mask %d twice", e.MaskID))
			}
			seen[e.MaskID] = true
			stored, ok := recOf[e.MaskID]
			if !ok {
				fatal(fmt.Errorf("journal entry %d is mask %d, which the logs do not have", i, e.MaskID))
			}
			var rec core.LogRecord
			if err := json.Unmarshal(e.Record, &rec); err != nil {
				fatal(fmt.Errorf("journal entry %d record does not parse: %w", i, err))
			}
			if !reflect.DeepEqual(rec, stored) {
				fatal(fmt.Errorf("journal record for mask %d differs from the stored log record", e.MaskID))
			}
			if cls, _ := (core.Parser{}).Classify(stored); e.StoppedEarly != (cls == core.ClassStopped) {
				fatal(fmt.Errorf("journal entry for mask %d flags stopped-early=%v, record classifies %q", e.MaskID, e.StoppedEarly, cls))
			}
		}
		// The journal and the trace's simulated and stopped rows must name
		// the same masks: every simulated run and every stop settlement was
		// journaled, no pruned run was.
		for _, tr := range recs {
			if tr.Pruned == "" && !seen[tr.MaskID] {
				fatal(fmt.Errorf("simulated mask %d has no journal entry", tr.MaskID))
			}
			if tr.Pruned != "" && seen[tr.MaskID] {
				fatal(fmt.Errorf("pruned mask %d was journaled", tr.MaskID))
			}
		}
		journaled = len(entries)
	}
	if *wantResumed && snap.Resumed == 0 {
		fatal(fmt.Errorf("-want-resumed: snapshot reports no resumed runs"))
	}

	var diverged int
	if *wantDivergence {
		var drecs []divergence.Record
		drecs, diverged = checkDivergence(repo, *key, res.Records)
		if *divTable {
			if err := divergence.WriteTable(os.Stdout, divergence.Aggregate(drecs)); err != nil {
				fatal(err)
			}
		}
	}
	var spanCount int
	if *wantSpans {
		simulated := 0
		for _, tr := range recs {
			if tr.Pruned == "" && !tr.Stopped {
				simulated++
			}
		}
		spanCount = checkSpans(repo, *key, simulated, int(snap.Resumed))
	}
	if *fleetPath != "" {
		checkFleet(*fleetPath, *workerSnaps, n)
	}

	fmt.Printf("smokecheck: %s OK — %d runs, classes %s, trace rows %d (%d dead + %d replicated, %d stopped early, %d journaled, %d resumed, %d windowed, %d diverged, %d spans)\n",
		*key, n, snap.ClassString(), len(recs), dead, replicated, stopped, journaled, snap.Resumed, snap.WindowedRuns, diverged, spanCount)
}

// checkDivergence validates the provenance file: schema-gated parse,
// one row per injection in mask order, class agreement with the offline
// parser, measurement-free pruned/resumed stubs, internally consistent
// propagation depths. Returns the records and the diverged-row count.
func checkDivergence(repo *core.LogsRepo, key string, records []core.LogRecord) ([]divergence.Record, int) {
	f, err := os.Open(repo.DivergencePath(key))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	drecs, err := divergence.ReadRecords(f)
	if err != nil {
		fatal(err)
	}
	if len(drecs) != len(records) {
		fatal(fmt.Errorf("divergence file has %d rows, logs have %d records", len(drecs), len(records)))
	}
	diverged := 0
	for i, d := range drecs {
		if d.Campaign != key || d.MaskID != records[i].MaskID {
			fatal(fmt.Errorf("divergence row %d is %s/%d, want %s/%d (order broken)",
				i, d.Campaign, d.MaskID, key, records[i].MaskID))
		}
		if cls, _ := (core.Parser{}).Classify(records[i]); d.Class != string(cls) {
			fatal(fmt.Errorf("divergence row %d class %q, parser says %q", i, d.Class, cls))
		}
		// Pruned rows carry no propagation measurements — nothing was
		// simulated for them (replicated rows do copy the representative's
		// cycle count along with its verdict).
		if d.Pruned != "" && (d.Observed || d.Diverged || d.FaultTouches != 0 || d.PropagationCycles != 0) {
			fatal(fmt.Errorf("divergence row %d is pruned %q but carries measurements: %+v", i, d.Pruned, d))
		}
		if d.Diverged {
			diverged++
			if !d.Observed && !d.Resumed {
				fatal(fmt.Errorf("divergence row %d diverged without consuming the fault", i))
			}
		}
		rederived := d
		rederived.Derive()
		if rederived.PropagationCycles != d.PropagationCycles || rederived.TimeToOutcome != d.TimeToOutcome {
			fatal(fmt.Errorf("divergence row %d depth fields not derivable from primaries: %+v", i, d))
		}
	}
	return drecs, diverged
}

// checkSpans validates the span trace: version-gated parse, one trace
// ID, strictly increasing sequence, every parent resolving inside the
// file, and one run span per simulated injection (a resumed campaign
// re-simulates fewer runs, so resumed rows relax the count into a lower
// bound). Returns the span count.
func checkSpans(repo *core.LogsRepo, key string, simulated, resumed int) int {
	f, err := os.Open(repo.SpansPath(key))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	spans, err := telemetry.ReadSpans(f)
	if err != nil {
		fatal(err)
	}
	if len(spans) == 0 {
		fatal(fmt.Errorf("span trace is empty"))
	}
	ids := make(map[string]bool, len(spans))
	campaigns, runs := 0, 0
	lastSeq := uint64(0)
	for i, sp := range spans {
		if sp.TraceID != spans[0].TraceID {
			fatal(fmt.Errorf("span %d has trace id %q, file started with %q", i, sp.TraceID, spans[0].TraceID))
		}
		if i > 0 && sp.Seq <= lastSeq {
			fatal(fmt.Errorf("span %d seq %d not after %d (total order broken)", i, sp.Seq, lastSeq))
		}
		lastSeq = sp.Seq
		if sp.SpanID == "" {
			fatal(fmt.Errorf("span %d has no id", i))
		}
		ids[sp.SpanID] = true
		switch sp.Kind {
		case telemetry.SpanCampaign:
			campaigns++
		case telemetry.SpanRun:
			runs++
		}
	}
	for i, sp := range spans {
		if sp.ParentID != "" && !ids[sp.ParentID] {
			fatal(fmt.Errorf("span %d (%s %q) has parent %q outside the trace", i, sp.Kind, sp.Name, sp.ParentID))
		}
	}
	if campaigns == 0 {
		fatal(fmt.Errorf("span trace has no campaign root span"))
	}
	if resumed == 0 && runs != simulated {
		fatal(fmt.Errorf("span trace has %d run spans, want %d (one per simulated injection)", runs, simulated))
	}
	if resumed > 0 && runs < simulated-resumed {
		fatal(fmt.Errorf("span trace has %d run spans, want at least %d", runs, simulated-resumed))
	}
	return len(spans)
}

// checkFleet validates the coordinator's fleet-aggregated snapshot:
// re-merging the per-worker snapshots must reproduce it counter for
// counter, and its run total must match the stored logs.
func checkFleet(fleetPath, workerSnaps string, logRecords uint64) {
	var fleet telemetry.Snapshot
	readSnap(fleetPath, &fleet)
	if workerSnaps == "" {
		fatal(fmt.Errorf("-fleet needs -worker-snaps"))
	}
	var parts []telemetry.Snapshot
	for _, p := range strings.Split(workerSnaps, ",") {
		var s telemetry.Snapshot
		readSnap(strings.TrimSpace(p), &s)
		parts = append(parts, s)
	}
	merged := telemetry.MergeSnapshots(parts...)
	if fleet.RunsDone != merged.RunsDone || fleet.SimCycles != merged.SimCycles ||
		fleet.DivergedRuns != merged.DivergedRuns || fleet.RunsQueued != merged.RunsQueued {
		fatal(fmt.Errorf("fleet snapshot (%d runs, %d cycles, %d diverged) != merged workers (%d, %d, %d)",
			fleet.RunsDone, fleet.SimCycles, fleet.DivergedRuns,
			merged.RunsDone, merged.SimCycles, merged.DivergedRuns))
	}
	if !reflect.DeepEqual(fleet.ClassCounts, merged.ClassCounts) {
		fatal(fmt.Errorf("fleet class histogram %v != merged workers %v", fleet.ClassCounts, merged.ClassCounts))
	}
	if fleet.RunsDone != logRecords {
		fatal(fmt.Errorf("fleet snapshot has %d runs, logs have %d records", fleet.RunsDone, logRecords))
	}
	fmt.Printf("smokecheck: fleet snapshot equals the merge of %d worker snapshots (%d runs)\n",
		len(parts), fleet.RunsDone)
}

func readSnap(path string, s *telemetry.Snapshot) {
	b, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	if err := json.Unmarshal(b, s); err != nil {
		fatal(fmt.Errorf("%s does not parse: %w", path, err))
	}
}

// checkLive probes a running coordinator's observability plane:
// /v1/snapshot.json parses, /v1/metrics carries HELP'd exposition, and an
// SSE subscription to /v1/events opens with a "snapshot" frame and streams the
// required number of run and span frames before the deadline.
func checkLive(base string, minRuns, minSpans int, timeout time.Duration) {
	base = strings.TrimSuffix(base, "/") + "/v1"
	client := &http.Client{Timeout: 10 * time.Second}

	resp, err := client.Get(base + "/snapshot.json")
	if err != nil {
		fatal(err)
	}
	var snap telemetry.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		fatal(fmt.Errorf("/snapshot.json does not parse: %w", err))
	}

	resp, err = client.Get(base + "/metrics")
	if err != nil {
		fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fatal(err)
	}
	if !strings.Contains(string(metrics), "# HELP faultinject_runs_done_total") {
		fatal(fmt.Errorf("/metrics lacks the HELP'd exposition"))
	}

	// The SSE subscription: no client timeout (the stream is long-lived);
	// the overall deadline instead bounds the read loop via the context.
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
	if err != nil {
		fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		fatal(fmt.Errorf("/events Content-Type = %q", ct))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	first := true
	runs, spans := 0, 0
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "event: ") {
			continue
		}
		event := strings.TrimPrefix(line, "event: ")
		if first {
			if event != "snapshot" {
				fatal(fmt.Errorf("/events first frame is %q, want snapshot", event))
			}
			first = false
		}
		switch event {
		case "run":
			runs++
		case "span":
			spans++
		}
		if runs >= minRuns && spans >= minSpans {
			fmt.Printf("smokecheck: live plane OK — snapshot served, %d run and %d span frames streamed\n", runs, spans)
			return
		}
	}
	fatal(fmt.Errorf("/events ended after %d run and %d span frames, want %d and %d (scan err: %v)",
		runs, spans, minRuns, minSpans, sc.Err()))
}

// checkService validates the campaign service's durable state after a
// smoke round: every named campaign's spool entry parses under its
// schema gate and sits in the expected lifecycle state, done campaigns
// have an indexed outcome table whose shares form a distribution, and
// campaigns that never finished left no index behind.
func checkService(spoolDir, indexDir, pairs string) {
	if spoolDir == "" || indexDir == "" {
		fatal(fmt.Errorf("-service needs -spool and -index"))
	}
	spool, err := svc.OpenSpool(spoolDir)
	if err != nil {
		fatal(err)
	}
	entries, err := spool.Scan()
	if err != nil {
		fatal(err)
	}
	byID := make(map[string]*svc.SpoolEntry, len(entries))
	for _, e := range entries {
		byID[e.ID] = e
	}
	index, err := fault.NewResultIndex(indexDir)
	if err != nil {
		fatal(err)
	}
	checked := 0
	for _, pair := range strings.Split(pairs, ",") {
		id, state, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			fatal(fmt.Errorf("-service: bad pair %q, want id=state", pair))
		}
		e := byID[id]
		if e == nil {
			fatal(fmt.Errorf("campaign %s has no spool entry in %s", id, spoolDir))
		}
		if e.State != state {
			fatal(fmt.Errorf("campaign %s spooled in state %q, want %q", id, e.State, state))
		}
		if state == "done" {
			cells, err := index.Load(id)
			if err != nil {
				fatal(fmt.Errorf("done campaign %s has no result index: %w", id, err))
			}
			if len(cells) == 0 {
				fatal(fmt.Errorf("done campaign %s indexed zero cells", id))
			}
			for _, c := range cells {
				if c.Runs <= 0 {
					fatal(fmt.Errorf("campaign %s cell %s indexed %d runs", id, c.Key, c.Runs))
				}
				var sum float64
				for _, s := range c.Shares {
					sum += s
				}
				if sum < 0.999 || sum > 1.001 {
					fatal(fmt.Errorf("campaign %s cell %s shares sum to %g, want 1", id, c.Key, sum))
				}
				if c.Vulnerability < 0 || c.Vulnerability > 1 {
					fatal(fmt.Errorf("campaign %s cell %s vulnerability %g outside [0, 1]", id, c.Key, c.Vulnerability))
				}
			}
		} else if index.Has(id) {
			fatal(fmt.Errorf("campaign %s is %s but left a result index behind", id, state))
		}
		checked++
	}
	fmt.Printf("smokecheck: service state OK — %d campaigns checked in %s (%d spooled total)\n",
		checked, spoolDir, len(entries))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smokecheck:", err)
	os.Exit(1)
}
