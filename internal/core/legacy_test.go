package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"seda/internal/index"
	"seda/internal/snapcodec"
	"seda/internal/store"
)

// TestLegacySnapshotsRejected: files in the retired persistence formats
// are typed rejections, never a load, a panic or a wrong answer. The
// fixtures under testdata/legacy were written by the last release that
// still wrote them: a SEDASNAP v1 container (one flat index section), a
// v2 container (uncompressed per-shard sections), and a v1
// collection.gob stream. A v3 container differs from an unmasked v4 only
// in its version field, so it is derived from a current save. Every entry
// point answers the same typed error, which the serving tier turns into a
// rebuild from source.
func TestLegacySnapshotsRejected(t *testing.T) {
	dir := t.TempDir()
	var v4 bytes.Buffer
	if err := SaveEngine(&v4, newEngine(t), ""); err != nil {
		t.Fatal(err)
	}
	v3 := append([]byte(nil), v4.Bytes()...)
	v3[len(snapcodec.Magic)] = 3
	v3Path := filepath.Join(dir, "v3.snap")
	if err := os.WriteFile(v3Path, v3, 0o644); err != nil {
		t.Fatal(err)
	}

	legacy := func(name string) string { return filepath.Join("testdata", "legacy", name) }
	cases := []struct {
		name string
		path string
		want error
	}{
		{"v1", legacy("v1.snap"), snapcodec.ErrVersion},
		{"v2", legacy("v2.snap"), snapcodec.ErrVersion},
		{"v3", v3Path, snapcodec.ErrVersion},
		{"gob", legacy("collection.gob"), ErrNotSnapshot},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := os.ReadFile(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []Config{{}, {ResidentBudget: 1}} {
				if _, err := LoadEngine(bytes.NewReader(data), cfg, ""); !errors.Is(err, tc.want) {
					t.Errorf("LoadEngine (budget %d): err = %v, want %v", cfg.ResidentBudget, err, tc.want)
				}
				if _, err := LoadEngineFile(tc.path, cfg, ""); !errors.Is(err, tc.want) {
					t.Errorf("LoadEngineFile (budget %d): err = %v, want %v", cfg.ResidentBudget, err, tc.want)
				}
				if _, err := LoadEngineAuto(tc.path, cfg); !errors.Is(err, tc.want) {
					t.Errorf("LoadEngineAuto (budget %d): err = %v, want %v", cfg.ResidentBudget, err, tc.want)
				}
			}
		})
	}

	// The shard payload a v2 container carried, in the retired
	// uncompressed shard codec. It is also a FuzzShardDecode seed.
	t.Run("shard-codec-v1", func(t *testing.T) {
		data, err := os.ReadFile(legacy("shard_v1.bin"))
		if err != nil {
			t.Fatal(err)
		}
		col := store.NewCollection()
		for _, decode := range []func(*snapcodec.Reader, *store.Collection) (*index.Shard, error){index.DecodeShard, index.DecodeShardPaged} {
			if _, err := decode(snapcodec.NewReader(data), col); !errors.Is(err, snapcodec.ErrVersion) {
				t.Errorf("err = %v, want ErrVersion", err)
			}
		}
	})
}
