package recordlog

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"tivapromi/internal/iofault"
)

// QuarantineKeep is the number of *.corrupt-<ts> forensic corpses
// retained per quarantined path. A server that crashes in a loop would
// otherwise slowly fill its data directory with them, so after each
// quarantine the newest K are kept and older ones are deleted through
// the FS seam.
const QuarantineKeep = 3

// pruneQuarantine bounds the quarantine corpses for path: among the
// sibling files named <base(path)>.corrupt-<ts>, the QuarantineKeep
// newest (by the timestamp suffix) survive and the rest are removed
// through the FS seam. Returns how many corpses were deleted. Errors
// are returned but callers treat pruning as best-effort — a failed
// deletion must never turn a successful salvage into a load failure.
func pruneQuarantine(fsys iofault.FS, path string) (int, error) {
	dir := filepath.Dir(path)
	prefix := filepath.Base(path) + ".corrupt-"
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("recordlog: prune quarantine: %w", err)
	}
	type corpse struct {
		name string
		ts   int64
	}
	var corpses []corpse
	for _, name := range names {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		ts, err := strconv.ParseInt(name[len(prefix):], 10, 64)
		if err != nil {
			// Not one of ours (e.g. a corpse of a corpse); leave it alone.
			continue
		}
		corpses = append(corpses, corpse{name: name, ts: ts})
	}
	if len(corpses) <= QuarantineKeep {
		return 0, nil
	}
	sort.Slice(corpses, func(i, j int) bool { return corpses[i].ts > corpses[j].ts })
	removed := 0
	var firstErr error
	for _, c := range corpses[QuarantineKeep:] {
		if err := fsys.Remove(filepath.Join(dir, c.name)); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("recordlog: prune quarantine %s: %w", c.name, err)
			}
			continue
		}
		removed++
	}
	return removed, firstErr
}
