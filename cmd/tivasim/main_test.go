package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tivapromi/internal/sim"
	"tivapromi/internal/trace"
)

// writeTrace records a one-window trace of the default workload and
// returns its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Windows = 1
	path := filepath.Join(t.TempDir(), "t.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, trace.Header{
		Banks:       cfg.Params.Banks,
		RowsPerBank: cfg.Params.RowsPerBank,
		RefInt:      cfg.Params.RefInt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RecordTrace(cfg, w); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayEveryTechnique replays one trace under "all" and under a
// list, and requires one table row per resolved technique, in order.
func TestReplayEveryTechnique(t *testing.T) {
	path := writeTrace(t)
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{"all", append([]string{"none"}, sim.TechniqueNames()...)},
		{"LiPRoMi,PARA", []string{"LiPRoMi", "PARA"}},
		{"none", []string{"none"}},
	} {
		var out bytes.Buffer
		if err := replayTrace(&out, path, techniqueNames(tc.spec)); err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		var got []string
		for _, line := range strings.Split(out.String(), "\n") {
			fields := strings.Fields(line)
			if len(fields) == 5 && strings.HasSuffix(fields[1], "%") {
				got = append(got, fields[0])
			}
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("-technique %s rendered rows %v, want %v\n%s", tc.spec, got, tc.want, out.String())
		}
	}
}
