package core

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// LogsRepo is the on-disk "logs repository" of Fig. 1: one JSON-lines
// file per campaign, a golden-run header followed by one record per
// injection. The Parser (and the classify command) consume it offline.
type LogsRepo struct {
	dir string
}

// NewLogsRepo opens (creating if needed) a logs repository rooted at dir.
func NewLogsRepo(dir string) (*LogsRepo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating logs repository: %w", err)
	}
	return &LogsRepo{dir: dir}, nil
}

// Dir returns the repository root.
func (r *LogsRepo) Dir() string { return r.dir }

func (r *LogsRepo) file(key string) string {
	return filepath.Join(r.dir, key+".log.jsonl")
}

// Store writes one campaign's golden header and records. Like the masks
// repository, the write is atomic (temp file + rename) so a crash at
// finalize time cannot leave a truncated log file.
func (r *LogsRepo) Store(key string, res *CampaignResult) error {
	err := fault.AtomicWrite(r.file(key), func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		if err := enc.Encode(&res.Golden); err != nil {
			return err
		}
		for i := range res.Records {
			if err := enc.Encode(&res.Records[i]); err != nil {
				return err
			}
		}
		if res.Adaptive != nil {
			if err := enc.Encode(logTrailer{Adaptive: res.Adaptive}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: storing logs for %s: %w", key, err)
	}
	return nil
}

// StoreCampaign stores a campaign's artifacts in the repository: each
// cell's log under its key (see Store) and, under name, the trace when
// trace is non-nil, the divergence file when the results measured
// divergence, and the spans when spans is non-nil. Every file is
// written atomically and all of them concurrently; the error joins the
// errors of the writes that failed, in that order.
func (r *LogsRepo) StoreCampaign(name string, keys []string, results []*CampaignResult, trace *telemetry.TraceSink, spans *telemetry.SpanBuffer) error {
	var writes []func() error
	for i, res := range results {
		writes = append(writes, func() error { return r.Store(keys[i], res) })
	}
	if trace != nil {
		writes = append(writes, func() error { return r.WriteArtifact(r.TracePath(name), trace.Flush) })
	}
	if slices.ContainsFunc(results, func(res *CampaignResult) bool { return res.Divergence != nil }) {
		writes = append(writes, func() error {
			return r.WriteArtifact(r.DivergencePath(name), func(w io.Writer) error {
				return divergence.WriteRecords(w, DivergenceRows(results))
			})
		})
	}
	if spans != nil {
		writes = append(writes, func() error { return r.WriteArtifact(r.SpansPath(name), spans.Flush) })
	}
	errs := make([]error, len(writes))
	var wg sync.WaitGroup
	for i, write := range writes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = write()
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// DivergenceRows returns the divergence rows of results sorted by
// (campaign, mask ID), the divergence file's order. A ledger holds its
// rows in mask-index order, which an explicit mask file need not list
// in mask-ID order.
func DivergenceRows(results []*CampaignResult) []divergence.Record {
	var rows []divergence.Record
	for _, res := range results {
		rows = append(rows, res.Divergence...)
	}
	slices.SortStableFunc(rows, func(a, b divergence.Record) int {
		return cmp.Or(strings.Compare(a.Campaign, b.Campaign), cmp.Compare(a.MaskID, b.MaskID))
	})
	return rows
}

// logTrailer is the optional last line of a campaign log file, carrying
// result fields that are not per-record — today the adaptive-control
// outcome. Fixed-budget campaign files simply lack the line; ReadLogs
// tells the two apart by the presence of the "adaptive" key.
type logTrailer struct {
	Adaptive *AdaptiveInfo `json:"adaptive"`
}

// CreateTrace creates (truncating) the JSONL injection trace file named
// name+".trace.jsonl" in the repository — the opt-in per-injection
// debugging record stream that lives next to the campaign logs.
func (r *LogsRepo) CreateTrace(name string) (*os.File, error) {
	f, err := os.Create(r.TracePath(name))
	if err != nil {
		return nil, fmt.Errorf("core: creating trace for %s: %w", name, err)
	}
	return f, nil
}

// WriteArtifact writes one buffered artifact stream (a trace, span or
// divergence file) to path through fault.AtomicWrite, as Store writes
// the logs: a failed write or a crash leaves the old file or none,
// never a torn one.
func (r *LogsRepo) WriteArtifact(path string, write func(io.Writer) error) error {
	err := fault.AtomicWrite(path, func(w *bufio.Writer) error { return write(w) })
	if err != nil {
		return fmt.Errorf("core: writing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// TracePath returns the trace file path for a name.
func (r *LogsRepo) TracePath(name string) string {
	return filepath.Join(r.dir, name+".trace.jsonl")
}

// DivergencePath returns the divergence-provenance file path for a name.
func (r *LogsRepo) DivergencePath(name string) string {
	return filepath.Join(r.dir, name+".divergence.jsonl")
}

// SpansPath returns the span-trace file path for a name.
func (r *LogsRepo) SpansPath(name string) string {
	return filepath.Join(r.dir, name+".spans.jsonl")
}

// JournalPath returns the durable run-journal path for a name — the
// append-only crash-recovery record stream that lives next to the
// campaign logs (the logs file itself is rewritten whole at the end of a
// campaign, so it cannot serve as the recovery record).
func (r *LogsRepo) JournalPath(name string) string {
	return filepath.Join(r.dir, name+".journal.jsonl")
}

// Load reads one campaign's result back.
func (r *LogsRepo) Load(key string) (*CampaignResult, error) {
	f, err := os.Open(r.file(key))
	if err != nil {
		return nil, fmt.Errorf("core: loading logs for %s: %w", key, err)
	}
	defer f.Close()
	return ReadLogs(f)
}

// Campaigns lists stored campaign keys.
func (r *LogsRepo) Campaigns() ([]string, error) {
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("core: listing logs repository: %w", err)
	}
	var keys []string
	const suffix = ".log.jsonl"
	for _, e := range ents {
		name := e.Name()
		if len(name) > len(suffix) && name[len(name)-len(suffix):] == suffix {
			keys = append(keys, name[:len(name)-len(suffix)])
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// ReadLogs parses a campaign log stream.
func ReadLogs(rd io.Reader) (*CampaignResult, error) {
	dec := json.NewDecoder(rd)
	var res CampaignResult
	if err := dec.Decode(&res.Golden); err != nil {
		return nil, fmt.Errorf("core: reading golden header: %w", err)
	}
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if err == io.EOF {
				return &res, nil
			}
			return nil, fmt.Errorf("core: reading log record: %w", err)
		}
		var trailer logTrailer
		if err := json.Unmarshal(raw, &trailer); err == nil && trailer.Adaptive != nil {
			res.Adaptive = trailer.Adaptive
			continue
		}
		var rec LogRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("core: reading log record: %w", err)
		}
		res.Records = append(res.Records, rec)
	}
}
