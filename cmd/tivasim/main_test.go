package main

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"tivapromi/internal/sim"
)

// oneWindow is the default configuration cut to one refresh window.
func oneWindow() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Windows = 1
	return cfg
}

// writeTrace records a one-window trace of the default workload the way
// -record does and returns its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.bin")
	if err := recordTrace(io.Discard, path, oneWindow()); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayMatchesRun replays a recording unprotected and requires the
// activations and flips of the run it recorded: the replay device must
// have the recording's flip threshold, not the paper's.
func TestReplayMatchesRun(t *testing.T) {
	cfg := oneWindow()
	want, err := sim.RunCtx(context.Background(), cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayOne(writeTrace(t), "", cfg.Params.FlipThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalActs != want.TotalActs || got.Flips != want.Flips {
		t.Fatalf("replay: %d acts, %d flips; run: %d acts, %d flips",
			got.TotalActs, got.Flips, want.TotalActs, want.Flips)
	}
	if want.Flips == 0 {
		t.Fatal("the unprotected run did not flip; the comparison shows nothing")
	}
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
		{"none,PARA", []string{"none", "PARA"}},
	} {
		var out bytes.Buffer
		if err := replayTrace(&out, path, techniqueNames(tc.spec), oneWindow()); err != nil {
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
