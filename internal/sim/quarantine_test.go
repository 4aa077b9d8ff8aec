package sim

import (
	"os"
	"path/filepath"
	"testing"

	"tivapromi/internal/recordlog"
)

// TestQuarantineBoundOnRepeatedSalvage: a checkpoint that keeps getting
// damaged across restarts accumulates at most recordlog.QuarantineKeep corpses —
// the load path prunes after each quarantine.
func TestQuarantineBoundOnRepeatedSalvage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	for i := 0; i < recordlog.QuarantineKeep+3; i++ {
		if err := os.WriteFile(path, []byte("not a checkpoint at all"), 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("round %d: load: %v", i, err)
		}
		if ck.LoadReport().Err == nil {
			t.Fatalf("round %d: garbage loaded without salvage", i)
		}
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corpses := 0
	for _, e := range names {
		if len(e.Name()) > len("ckpt.json.corrupt-") && e.Name()[:len("ckpt.json.corrupt-")] == "ckpt.json.corrupt-" {
			corpses++
		}
	}
	if corpses > recordlog.QuarantineKeep {
		t.Fatalf("%d corpses on disk after repeated salvage, want at most %d", corpses, recordlog.QuarantineKeep)
	}
	if corpses == 0 {
		t.Fatal("no corpses at all — quarantine never happened, test is vacuous")
	}
}
