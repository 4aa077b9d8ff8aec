package recordlog

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tivapromi/internal/iofault"
)

// TestPruneQuarantine: only the newest QuarantineKeep corpses for the
// target path survive; unrelated siblings — other paths' corpses,
// non-corpse files, corpses without a parseable timestamp — are never
// touched.
func TestPruneQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")
	for ts := 1; ts <= 5; ts++ {
		name := fmt.Sprintf("cache.json.corrupt-%d", ts)
		if err := os.WriteFile(filepath.Join(dir, name), []byte("corpse"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bystanders := []string{
		"other.json.corrupt-9",       // a different path's corpse
		"cache.json.bak",             // not a corpse at all
		"cache.json.corrupt-7.extra", // unparseable timestamp suffix
	}
	for _, name := range bystanders {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	removed, err := pruneQuarantine(iofault.OS{}, path)
	if err != nil {
		t.Fatalf("prune: %v", err)
	}
	if removed != 2 {
		t.Fatalf("removed %d corpses, want 2 (keep the newest 3 of 5)", removed)
	}
	for ts := 1; ts <= 5; ts++ {
		name := filepath.Join(dir, fmt.Sprintf("cache.json.corrupt-%d", ts))
		_, statErr := os.Stat(name)
		if ts <= 2 && statErr == nil {
			t.Errorf("old corpse ts=%d survived the prune", ts)
		}
		if ts >= 3 && statErr != nil {
			t.Errorf("new corpse ts=%d was deleted: %v", ts, statErr)
		}
	}
	for _, name := range bystanders {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("bystander %s was deleted: %v", name, err)
		}
	}

	// Idempotent: within the bound, nothing more is removed.
	if removed, err := pruneQuarantine(iofault.OS{}, path); err != nil || removed != 0 {
		t.Fatalf("second prune removed %d (err %v), want 0", removed, err)
	}
}
