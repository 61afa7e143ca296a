package fault

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func journalEntry(campaign string, mask int) JournalEntry {
	return JournalEntry{
		Campaign: campaign,
		MaskID:   mask,
		Record:   json.RawMessage(`{"mask_id":` + jsonInt(mask) + `,"status":"completed"}`),
		Observed: mask%2 == 0,
	}
}

func jsonInt(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestJournalRoundTrip appends across two opens and checks the resume
// set reflects exactly what was acknowledged before each reopen.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Entries(); len(got) != 0 {
		t.Fatalf("fresh journal has %d entries", len(got))
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(journalEntry("k", i)); err != nil {
			t.Fatal(err)
		}
	}
	if j.Appended() != 3 {
		t.Fatalf("appended = %d, want 3", j.Appended())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalEntry("k", 9)); err == nil {
		t.Fatal("append on closed journal succeeded")
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	past := j2.Entries()
	if len(past) != 3 {
		t.Fatalf("reopened journal has %d entries, want 3", len(past))
	}
	for i, e := range past {
		if e.Campaign != "k" || e.MaskID != i || e.Observed != (i%2 == 0) {
			t.Fatalf("entry %d round-tripped wrong: %+v", i, e)
		}
		var rec struct {
			MaskID int    `json:"mask_id"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal(e.Record, &rec); err != nil || rec.MaskID != i || rec.Status != "completed" {
			t.Fatalf("entry %d record payload: %s (%v)", i, e.Record, err)
		}
	}
	if err := j2.Append(journalEntry("k", 3)); err != nil {
		t.Fatal(err)
	}
	all, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 || all[3].MaskID != 3 {
		t.Fatalf("after reopen+append: %d entries (%+v)", len(all), all)
	}
}

// TestJournalTornTailRecovered simulates the crash case: a journal whose
// last line was cut mid-write must reopen to the valid prefix, and the
// next append must land on a clean line boundary.
func TestJournalTornTailRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := j.Append(journalEntry("k", i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Tear the file: half an entry, no trailing newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"campaign":"k","mask_id":2,"rec`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.Entries(); len(got) != 2 {
		t.Fatalf("torn journal reopened with %d entries, want 2", len(got))
	}
	if err := j2.Append(journalEntry("k", 2)); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("recovered journal has %d lines: %q", len(lines), data)
	}
	for i, line := range lines {
		var e JournalEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d does not parse after torn-tail recovery: %q (%v)", i, line, err)
		}
		if e.MaskID != i {
			t.Fatalf("line %d is mask %d", i, e.MaskID)
		}
	}
}

// TestJournalMissingFile: reading a journal that never existed is an
// empty resume set, not an error.
func TestJournalMissingFile(t *testing.T) {
	entries, err := ReadJournalFile(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if entries != nil {
		t.Fatalf("missing journal read as %+v", entries)
	}
}

// TestReadJournalReader covers the io.Reader form used by smokecheck.
func TestReadJournalReader(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 2; i++ {
		b, _ := json.Marshal(journalEntry("c", i))
		sb.Write(b)
		sb.WriteByte('\n')
	}
	sb.WriteString(`{"torn`)
	entries, err := ReadJournal(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Campaign != "c" {
		t.Fatalf("entries: %+v", entries)
	}
}

// Appends stamp the current schema version, unversioned lines (the PR
// 2–4 format) load as version 0, and a line from a newer build fails the
// open — unlike a torn tail it must not be truncated away.
func TestJournalSchemaVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalEntry("k", 0)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"schema_version":1`) {
		t.Fatalf("appended line carries no schema version: %s", data)
	}

	// An unversioned (legacy) line parses as version 0 next to a stamped one.
	legacy := `{"campaign":"k","mask_id":1,"record":{"mask_id":1,"status":"completed"}}` + "\n"
	if err := os.WriteFile(path, append(data, legacy...), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Plain entries are stamped with the lowest version that expresses
	// them (1), so journals without adaptive control stay byte-identical
	// to older builds; only stopped-early rows carry version 2.
	if len(entries) != 2 || entries[0].SchemaVersion != 1 || entries[1].SchemaVersion != 0 {
		t.Fatalf("mixed-version journal misread: %+v", entries)
	}

	// A future-versioned line is a hard error on every read path.
	future := `{"schema_version":99,"campaign":"k","mask_id":2,"record":{}}` + "\n"
	if err := os.WriteFile(path, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournalFile(path); err == nil || !strings.Contains(err.Error(), "schema version 99") {
		t.Fatalf("ReadJournalFile accepted a future version: %v", err)
	}
	if _, err := ReadJournal(strings.NewReader(future)); err == nil {
		t.Fatal("ReadJournal accepted a future version")
	}
	if _, err := OpenJournal(path); err == nil {
		t.Fatal("OpenJournal accepted (and would truncate) a future-versioned journal")
	}
}

// BenchmarkJournalAppend measures the fsync'd per-run journal cost — the
// durability overhead quoted in EXPERIMENTS.md.
func BenchmarkJournalAppend(b *testing.B) {
	j, err := OpenJournal(filepath.Join(b.TempDir(), "bench.journal.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	e := journalEntry("bench", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MaskID = i
		if err := j.Append(e); err != nil {
			b.Fatal(err)
		}
	}
}

// A line carrying divergence provenance is stamped version 3, which a
// build that would drop the provenance refuses; plain and stopped-early
// lines keep versions 1 and 2. The provenance survives the round trip.
func TestJournalStampsProvenanceVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	plain, stopped, prov := journalEntry("k", 1), journalEntry("k", 2), journalEntry("k", 3)
	stopped.StoppedEarly = true
	prov.FaultTouches, prov.LastTouchCycle, prov.CorruptStructures = 2, 130, []string{"rf.int"}
	prov.Diverged, prov.DivergeCycle, prov.DivergeIndex = true, 150, 41
	for _, e := range []JournalEntry{plain, stopped, prov} {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	entries, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[0].SchemaVersion != 1 || entries[1].SchemaVersion != 2 || entries[2].SchemaVersion != 3 {
		t.Fatalf("versions stamped: %+v", entries)
	}
	back := entries[2]
	back.SchemaVersion = 0
	if !reflect.DeepEqual(back, prov) {
		t.Fatalf("provenance round trip: %+v, want %+v", back, prov)
	}
}

// TestJournalAppendBatch appends the same entries as one batch and one
// by one: the files are byte-identical, the batch took one fsync where
// the singles took one each, and an empty batch writes nothing.
func TestJournalAppendBatch(t *testing.T) {
	dir := t.TempDir()
	entries := []JournalEntry{journalEntry("k", 0), journalEntry("k", 1), journalEntry("k", 2)}
	entries[1].StoppedEarly = true
	entries[2].Diverged = true

	batch, err := OpenJournal(filepath.Join(dir, "batch.journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.Append(); err != nil || batch.Syncs() != 0 {
		t.Fatalf("empty append: %v, %d fsyncs", err, batch.Syncs())
	}
	if err := batch.Append(entries...); err != nil {
		t.Fatal(err)
	}
	one, err := OpenJournal(filepath.Join(dir, "one.journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := one.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if batch.Syncs() != 1 || one.Syncs() != 3 || batch.Appended() != 3 {
		t.Fatalf("fsyncs: batch %d, singles %d; batch appended %d", batch.Syncs(), one.Syncs(), batch.Appended())
	}
	batch.Close()
	one.Close()
	a, _ := os.ReadFile(batch.Path())
	b, _ := os.ReadFile(one.Path())
	if len(a) == 0 || string(a) != string(b) {
		t.Fatalf("batch-written journal differs from single appends:\n%s\n%s", a, b)
	}
	got, err := ReadJournalFile(batch.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].SchemaVersion != 1 || got[1].SchemaVersion != 2 || got[2].SchemaVersion != 3 {
		t.Fatalf("batch entries read back as %+v, want versions 1, 2, 3", got)
	}
}
