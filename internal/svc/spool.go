// Package svc is the always-on campaign service behind faultcampd: a
// durable submission queue, a per-tenant quota and priority scheduler,
// and a campaign lifecycle engine that multiplexes many distributed
// coordinators over one shared worker fleet. Campaign state lives in a
// spool directory (per campaign, one JSON file written once at
// submission and an fsync'd log of its state changes), so queued and
// running campaigns survive a daemon crash: on restart the
// service re-enqueues them and — when they journaled their runs —
// resumes them through the coordinator's exactly-once replay instead of
// re-running from scratch.
package svc

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/svc/api"
)

// SpoolSchemaVersion stamps spool entries so a daemon can tell old
// campaign files from new ones and refuse those of a newer build.
// Version 1 kept a campaign in one <id>.json, rewritten whole on every
// state change. Version 2 writes <id>.json once, at submission, and
// appends each later state change to <id>.state.jsonl; a version-1
// entry loads unchanged and is rewritten as version 2 at its first
// state change.
const SpoolSchemaVersion = 2

// SpoolEntry is the durable record of one submitted campaign — the
// whole submission (config and artifact options included) plus the
// lifecycle bookkeeping, so a restarted daemon can rebuild its queue
// from the spool directory alone.
type SpoolEntry struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	// Seq is the service-wide submission sequence number; it breaks
	// priority ties (earlier submissions first) and seeds ID generation
	// after a restart.
	Seq      int64  `json:"seq"`
	Tenant   string `json:"tenant,omitempty"`
	Name     string `json:"name,omitempty"`
	Priority int    `json:"priority,omitempty"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	// Resumed marks a campaign that was live (planning or beyond) when
	// the previous daemon died and was re-enqueued on restart.
	Resumed          bool  `json:"resumed,omitempty"`
	SubmittedUnixNS  int64 `json:"submitted_unix_ns,omitempty"`
	StartedUnixNS    int64 `json:"started_unix_ns,omitempty"`
	FirstLeaseUnixNS int64 `json:"first_lease_unix_ns,omitempty"`
	FinishedUnixNS   int64 `json:"finished_unix_ns,omitempty"`

	Options api.SubmitOptions   `json:"options"`
	Config  core.CampaignConfig `json:"config"`
}

// spoolState is the mutable part of a spool entry: one line of its
// state log.
type spoolState struct {
	State            string `json:"state"`
	Error            string `json:"error,omitempty"`
	Resumed          bool   `json:"resumed,omitempty"`
	StartedUnixNS    int64  `json:"started_unix_ns,omitempty"`
	FirstLeaseUnixNS int64  `json:"first_lease_unix_ns,omitempty"`
	FinishedUnixNS   int64  `json:"finished_unix_ns,omitempty"`
}

func (e *SpoolEntry) state() spoolState {
	return spoolState{
		State: e.State, Error: e.Error, Resumed: e.Resumed, StartedUnixNS: e.StartedUnixNS,
		FirstLeaseUnixNS: e.FirstLeaseUnixNS, FinishedUnixNS: e.FinishedUnixNS,
	}
}

func (e *SpoolEntry) setState(st spoolState) {
	e.State, e.Error, e.Resumed, e.StartedUnixNS = st.State, st.Error, st.Resumed, st.StartedUnixNS
	e.FirstLeaseUnixNS, e.FinishedUnixNS = st.FirstLeaseUnixNS, st.FinishedUnixNS
}

// Spool is the on-disk campaign queue. Per campaign it keeps <id>.json,
// written whole via temp-file-and-rename so a crash mid-write can never
// leave a torn entry, and <id>.state.jsonl, the campaign's state changes
// appended one fsync'd line each. The last complete line of the log is
// the campaign's state; a torn tail (a crash mid-append) is dropped, so
// the state before it survives.
type Spool struct {
	dir string

	mu sync.Mutex
	// torn holds the good length of state logs Scan found torn; the next
	// PutState cuts the tail away before it appends.
	torn map[string]int64
}

// OpenSpool opens (creating if needed) a spool directory.
func OpenSpool(dir string) (*Spool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("svc: creating spool: %w", err)
	}
	return &Spool{dir: dir, torn: make(map[string]int64)}, nil
}

// Dir returns the spool root.
func (s *Spool) Dir() string { return s.dir }

func (s *Spool) file(id string) string {
	return filepath.Join(s.dir, id+".json")
}

func (s *Spool) stateFile(id string) string {
	return filepath.Join(s.dir, id+".state.jsonl")
}

// Put writes (atomically, replacing) one campaign's whole entry: its
// first write, at submission, or the rewrite of a version-1 entry. Its
// later state changes go through PutState, and Scan reads the state
// they logged over the entry's own.
func (s *Spool) Put(e *SpoolEntry) error {
	err := fault.AtomicWrite(s.file(e.ID), func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(e)
	})
	if err != nil {
		return fmt.Errorf("svc: spooling campaign %s: %w", e.ID, err)
	}
	return nil
}

// PutState records a state change of a spooled campaign: one fsync'd
// line of its state log, leaving the submission as written. An entry
// from a version-1 spool is rewritten whole as version 2 instead.
func (s *Spool) PutState(e *SpoolEntry) error {
	if e.SchemaVersion < SpoolSchemaVersion {
		e.SchemaVersion = SpoolSchemaVersion
		return s.Put(e)
	}
	line, err := json.Marshal(e.state())
	if err != nil {
		return fmt.Errorf("svc: spooling state of campaign %s: %w", e.ID, err)
	}
	f, err := os.OpenFile(s.stateFile(e.ID), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("svc: spooling state of campaign %s: %w", e.ID, err)
	}
	s.mu.Lock()
	good, torn := s.torn[e.ID]
	delete(s.torn, e.ID)
	s.mu.Unlock()
	if torn {
		err = f.Truncate(good)
	}
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("svc: spooling state of campaign %s: %w", e.ID, err)
	}
	return nil
}

// Scan loads every spooled campaign, sorted by submission sequence,
// each in the state its state log last recorded.
func (s *Spool) Scan() ([]*SpoolEntry, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("svc: scanning spool: %w", err)
	}
	var out []*SpoolEntry
	for _, de := range ents {
		name := de.Name()
		if !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			return nil, fmt.Errorf("svc: scanning spool: %w", err)
		}
		var e SpoolEntry
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("svc: spool entry %s: %w", name, err)
		}
		if e.SchemaVersion > SpoolSchemaVersion {
			return nil, fmt.Errorf("svc: spool entry %s: schema version %d newer than this build (%d)",
				name, e.SchemaVersion, SpoolSchemaVersion)
		}
		if e.ID != strings.TrimSuffix(name, ".json") {
			return nil, fmt.Errorf("svc: spool entry %s names campaign %q", name, e.ID)
		}
		if err := s.loadState(&e); err != nil {
			return nil, err
		}
		out = append(out, &e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// loadState applies the last complete line of the entry's state log, if
// it has one, by the journals' torn-tail rule (fault.DecodeLines).
func (s *Spool) loadState(e *SpoolEntry) error {
	b, err := os.ReadFile(s.stateFile(e.ID))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("svc: scanning spool: %w", err)
	}
	states, good, _ := fault.DecodeLines[spoolState](b, nil)
	if len(states) > 0 {
		e.setState(states[len(states)-1])
	}
	if good < int64(len(b)) {
		s.mu.Lock()
		s.torn[e.ID] = good
		s.mu.Unlock()
	}
	return nil
}
