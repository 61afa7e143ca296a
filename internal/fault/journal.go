package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// JournalEntry is one line of the durable run journal: the completed
// record of a single injection run, keyed by {campaign, mask_id}. The
// journal is the crash-safety counterpart of the logs repository — where
// logs are written once at campaign end, journal lines are fsync'd as
// runs finish, so a killed campaign can be resumed without re-simulating
// any completed mask.
//
// Record is the raw core.LogRecord JSON (kept opaque here so the fault
// package needs no dependency on core). The Observed/FirstObsCycle/
// EarlyStop extras mirror the TraceRecord fields that are not derivable
// from the record alone; carrying them is what makes a resumed
// campaign's JSONL injection trace byte-identical to an uninterrupted
// run's.
type JournalEntry struct {
	// SchemaVersion is the journal format version the line was written
	// under; Append stamps JournalSchemaVersion on entries that carry
	// none. Zero identifies lines from before the field existed (the
	// unversioned PR 2–4 format), which parse unchanged.
	SchemaVersion int             `json:"schema_version,omitempty"`
	Campaign      string          `json:"campaign"`
	MaskID        int             `json:"mask_id"`
	Record        json.RawMessage `json:"record"`
	Observed      bool            `json:"observed,omitempty"`
	FirstObsCycle uint64          `json:"first_obs_cycle,omitempty"`
	EarlyStop     string          `json:"early_stop,omitempty"`
	// StoppedEarly marks an entry whose run was cancelled by the cell's
	// sequential stopping rule — settled provenance, not a simulated
	// run. Resume recomputes the stop decision from the real entries and
	// only uses this flag to avoid re-settling what is already durable.
	StoppedEarly bool `json:"stopped_early,omitempty"`
	// The divergence provenance of a simulated run (core.ShardRun's
	// fields of the same names): the corruption footprint and the
	// commit-stream verdict, so that a resumed run's divergence row is
	// the row the run first wrote.
	FaultTouches      uint64   `json:"fault_touches,omitempty"`
	LastTouchCycle    uint64   `json:"last_touch_cycle,omitempty"`
	CorruptStructures []string `json:"corrupt_structures,omitempty"`
	Diverged          bool     `json:"diverged,omitempty"`
	DivergeCycle      uint64   `json:"diverge_cycle,omitempty"`
	DivergeIndex      uint64   `json:"diverge_index,omitempty"`
}

// JournalSchemaVersion is the journal format version this build writes
// (see TraceSchemaVersion for the version history; the two formats
// version independently). Version 2 adds the stopped_early flag of
// adaptive campaigns, version 3 the divergence provenance; Append stamps
// each only on entries that carry its fields, so a journal without them
// keeps writing version-1 lines that older builds still resume from,
// and a build that would drop the provenance refuses lines that carry
// it.
const JournalSchemaVersion = 3

// provenance reports whether the entry carries version-3 fields.
func (e *JournalEntry) provenance() bool {
	return e.FaultTouches != 0 || e.LastTouchCycle != 0 || len(e.CorruptStructures) > 0 ||
		e.Diverged || e.DivergeCycle != 0 || e.DivergeIndex != 0
}

// Journal is an append-only JSONL run journal. Append marshals its
// entries, writes them as whole lines in one write and fsyncs once
// before returning, so every acknowledged line survives a SIGKILL of the
// campaign process. Safe for concurrent use by scheduler workers.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	past     []JournalEntry
	size     int64 // bytes of complete lines in the file
	appended int
	syncs    int
}

// DecodeLines decodes the longest valid prefix of complete JSON lines in
// data — the torn-tail rule of every append-only log here. A crash can
// leave a torn (or, after power loss, corrupt) tail; values after the
// first undecodable line are dropped and validLen reports how many bytes
// of data are good, so a writer can truncate the rest away before
// appending. check, when non-nil, vets each decoded value: its error is
// a hard error, not a torn tail (a line a newer build wrote, say, whose
// truncation would destroy acknowledged state).
func DecodeLines[T any](data []byte, check func(i int, v *T) error) (vals []T, validLen int64, err error) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		var v T
		if err := json.Unmarshal(data[off:off+nl], &v); err != nil {
			break
		}
		if check != nil {
			if err := check(len(vals), &v); err != nil {
				return nil, 0, err
			}
		}
		vals = append(vals, v)
		off += nl + 1
		validLen = int64(off)
	}
	return vals, validLen, nil
}

// parseJournal decodes a journal file by DecodeLines. A line that parses
// but carries a schema version newer than this build understands is a
// hard error — unlike a torn tail, it means a newer build owns the
// journal, and truncating its lines away would destroy acknowledged
// runs.
func parseJournal(data []byte) (entries []JournalEntry, validLen int64, err error) {
	return DecodeLines(data, func(i int, e *JournalEntry) error {
		if e.SchemaVersion > JournalSchemaVersion {
			return fmt.Errorf("fault: journal entry %d has schema version %d; this build reads versions <= %d",
				i, e.SchemaVersion, JournalSchemaVersion)
		}
		return nil
	})
}

// OpenJournal opens (creating if needed) the journal at path for
// appending. Entries already on disk — the completed runs of a killed
// campaign — are loaded and exposed via Entries; a torn trailing line is
// discarded and truncated away so the next Append starts on a clean line
// boundary.
func OpenJournal(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("fault: opening journal %s: %w", path, err)
	}
	entries, validLen, err := parseJournal(data)
	if err != nil {
		return nil, fmt.Errorf("fault: opening journal %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fault: opening journal %s: %w", path, err)
	}
	if validLen < int64(len(data)) {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("fault: truncating torn journal tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("fault: seeking journal %s: %w", path, err)
	}
	return &Journal{f: f, path: path, past: entries, size: validLen}, nil
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// Entries returns the entries that were on disk when the journal was
// opened — the resume set. The returned slice is shared; treat it as
// read-only.
func (j *Journal) Entries() []JournalEntry { return j.past }

// Appended reports how many entries this process has appended since
// opening (excludes the resume set).
func (j *Journal) Appended() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Syncs reports how many fsyncs this process's appends have made.
func (j *Journal) Syncs() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncs
}

// Append writes the entries as JSON lines, in order, with one write and
// one fsync, stamping unstamped entries with the lowest schema version
// that can express them (3 for divergence provenance, 2 for
// stopped-early provenance, 1 otherwise). The lines are those one Append
// per entry would write. A write or sync that fails truncates the file
// back to its last complete line, so no acknowledged line is followed by
// a torn one. Append() with no entries does nothing.
func (j *Journal) Append(es ...JournalEntry) error {
	if len(es) == 0 {
		return nil
	}
	var b []byte
	for _, e := range es {
		if e.SchemaVersion == 0 {
			switch {
			case e.provenance():
				e.SchemaVersion = 3
			case e.StoppedEarly:
				e.SchemaVersion = 2
			default:
				e.SchemaVersion = 1
			}
		}
		line, err := json.Marshal(&e)
		if err != nil {
			return fmt.Errorf("fault: journal append for %s mask %d: %w", e.Campaign, e.MaskID, err)
		}
		b = append(append(b, line...), '\n')
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("fault: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(b); err != nil {
		return j.tornLocked(fmt.Errorf("fault: journal append: %w", err))
	}
	j.syncs++
	if err := j.f.Sync(); err != nil {
		return j.tornLocked(fmt.Errorf("fault: journal sync: %w", err))
	}
	j.size += int64(len(b))
	j.appended += len(es)
	return nil
}

// tornLocked cuts a failed append back to the last complete line and
// returns err.
func (j *Journal) tornLocked(err error) error {
	if terr := j.f.Truncate(j.size); terr != nil {
		return fmt.Errorf("%w (truncating the torn tail: %v)", err, terr)
	}
	if _, serr := j.f.Seek(j.size, io.SeekStart); serr != nil {
		return fmt.Errorf("%w (seeking past the last line: %v)", err, serr)
	}
	return err
}

// Close closes the journal file. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// ReadJournal decodes journal entries from a reader, tolerating a torn
// trailing line the way OpenJournal does. Entries stamped with a newer
// schema version than this build understands are an error.
func ReadJournal(r io.Reader) ([]JournalEntry, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("fault: reading journal: %w", err)
	}
	entries, _, err := parseJournal(data)
	return entries, err
}

// ReadJournalFile reads the journal at path; a missing file is an empty
// journal, not an error.
func ReadJournalFile(path string) ([]JournalEntry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fault: reading journal %s: %w", path, err)
	}
	entries, _, err := parseJournal(data)
	return entries, err
}
