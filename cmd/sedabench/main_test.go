package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// rowTypes gives each engine experiment's per-corpus row type, so the
// checked-in rows are decoded under DisallowUnknownFields too. The paper
// experiments have no rows.
var rowTypes = map[string]func() any{
	"coldstart": func() any { return &[]coldstartCorpus{} },
	"ingest":    func() any { return &[]ingestCorpus{} },
	"shards":    func() any { return &[]shardsCorpus{} },
	"memory":    func() any { return &[]memoryCorpus{} },
	"lifecycle": func() any { return &[]lifecycleCorpus{} },
}

// decodeRecord decodes one BENCH file strictly: unknown keys at the top
// level or in a row, and trailing data, are errors.
func decodeRecord(raw []byte, name string) (record, error) {
	var rec record
	if rows, ok := rowTypes[name]; ok {
		rec.Corpora = rows()
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return rec, err
	}
	if dec.Decode(&json.RawMessage{}) != io.EOF {
		return rec, errors.New("trailing data after the record")
	}
	return rec, nil
}

// TestCheckedInRecords pins the one record schema: every BENCH_*.json at
// the repository root decodes into record, was taken at scale 0.1 and
// names an experiment, and every experiment has a checked-in record.
func TestCheckedInRecords(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json at the repository root")
	}
	known := map[string]bool{}
	for _, e := range experiments {
		known[e.name] = true
	}
	seen := map[string]bool{}
	for _, f := range files {
		base := filepath.Base(f)
		name := strings.TrimSuffix(strings.TrimPrefix(base, "BENCH_"), ".json")
		if !known[name] {
			t.Errorf("%s: %q is not an experiment", base, name)
			continue
		}
		seen[name] = true
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := decodeRecord(raw, name)
		if err != nil {
			t.Errorf("%s: %v", base, err)
			continue
		}
		if rec.Name != name {
			t.Errorf("%s: name %q, want %q", base, rec.Name, name)
		}
		if rec.Scale != 0.1 {
			t.Errorf("%s: scale %g, want 0.1", base, rec.Scale)
		}
		if rec.NsPerOp <= 0 || rec.Allocs == 0 || rec.Env.GOMAXPROCS <= 0 {
			t.Errorf("%s: empty measurement: ns_per_op %d, allocs %d, gomaxprocs %d",
				base, rec.NsPerOp, rec.Allocs, rec.Env.GOMAXPROCS)
		}
		if _, hasRows := rowTypes[name]; !hasRows && rec.Corpora != nil {
			t.Errorf("%s: a paper experiment has corpora rows", base)
		} else if hasRows && reflect.ValueOf(rec.Corpora).Elem().Len() != len(corpora) {
			t.Errorf("%s: %d corpora rows, want %d", base, reflect.ValueOf(rec.Corpora).Elem().Len(), len(corpora))
		}
	}
	for _, e := range experiments {
		if !seen[e.name] {
			t.Errorf("experiment %s has no checked-in BENCH_%s.json", e.name, e.name)
		}
	}
}

// TestWriteRecord round-trips a record through the writer and checks a
// failed write is reported, not swallowed.
func TestWriteRecord(t *testing.T) {
	dir := t.TempDir()
	want := record{
		Name: "shards", Scale: 0.1, NsPerOp: 1, Allocs: 2, AllocBytes: 3, Env: currentEnv(),
		Corpora: []shardsCorpus{{Name: "mondial", Docs: 5, Shards: multiShards}},
	}
	if err := writeRecord(dir, want); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_shards.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRecord(raw, "shards")
	if err != nil {
		t.Fatal(err)
	}
	rows := *got.Corpora.(*[]shardsCorpus)
	if got.Name != want.Name || got.Env != want.Env || len(rows) != 1 || rows[0].Shards != multiShards {
		t.Errorf("round trip: got %+v rows %+v", got, rows)
	}

	if err := writeRecord(filepath.Join(dir, "missing"), want); err == nil {
		t.Error("writeRecord into a missing directory returned nil")
	}
}
