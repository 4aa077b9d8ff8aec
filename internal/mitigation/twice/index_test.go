package twice

import (
	"testing"

	"tivapromi/internal/rng"
)

// TestRowIndexMatchesMapReference drives the open-addressing index with a
// random mix of put/del/get operations and cross-checks every observable
// against a plain Go map. Backward-shift deletion is the delicate part: the
// op mix leans on del so long probe chains get vacated and re-walked.
func TestRowIndexMatchesMapReference(t *testing.T) {
	const capEntries = 64
	ix := newRowIndex(capEntries)
	ref := make(map[int32]int32)
	src := rng.NewLFSR32(12345)

	// Rows drawn from a small universe so collisions and re-puts are common.
	const universe = 256
	for op := 0; op < 200000; op++ {
		row := int32(rng.Intn(src, universe))
		switch rng.Intn(src, 4) {
		case 0, 1: // put (2/4) — but respect the capacity bound
			if _, ok := ref[row]; !ok && len(ref) >= capEntries {
				// Table full: delete something instead to stay in contract.
				for k := range ref {
					delete(ref, k)
					ix.del(k)
					break
				}
			}
			pos := int32(rng.Intn(src, 1<<20))
			ref[row] = pos
			ix.put(row, pos)
		case 2: // del
			delete(ref, row)
			ix.del(row)
		default: // get
			want, wantOK := ref[row]
			got, gotOK := ix.get(row)
			if gotOK != wantOK || (wantOK && got != want) {
				t.Fatalf("op %d: get(%d) = (%d,%v), want (%d,%v)",
					op, row, got, gotOK, want, wantOK)
			}
		}
		if ix.len() != len(ref) {
			t.Fatalf("op %d: len = %d, want %d", op, ix.len(), len(ref))
		}
	}

	// Full sweep at the end: every key agrees in both directions.
	for row, want := range ref {
		got, ok := ix.get(row)
		if !ok || got != want {
			t.Fatalf("final: get(%d) = (%d,%v), want (%d,true)", row, got, ok, want)
		}
	}
	for row := int32(0); row < universe; row++ {
		if _, ok := ix.get(row); ok {
			if _, refOK := ref[row]; !refOK {
				t.Fatalf("final: get(%d) present, absent in reference", row)
			}
		}
	}
}

// TestRowIndexClearAndReuse verifies clear empties the index and the
// structure is fully usable afterwards (Reset/OnNewWindow path).
func TestRowIndexClearAndReuse(t *testing.T) {
	ix := newRowIndex(8)
	for r := int32(0); r < 8; r++ {
		ix.put(r, r*10)
	}
	ix.clear()
	if ix.len() != 0 {
		t.Fatalf("len after clear = %d, want 0", ix.len())
	}
	for r := int32(0); r < 8; r++ {
		if _, ok := ix.get(r); ok {
			t.Fatalf("get(%d) present after clear", r)
		}
	}
	ix.put(3, 99)
	if v, ok := ix.get(3); !ok || v != 99 {
		t.Fatalf("get(3) after reuse = (%d,%v), want (99,true)", v, ok)
	}
}

// TestRowIndexRowZero pins the row+1 key encoding: row 0 must be storable
// and distinguishable from an empty slot.
func TestRowIndexRowZero(t *testing.T) {
	ix := newRowIndex(4)
	if _, ok := ix.get(0); ok {
		t.Fatal("get(0) present on empty index")
	}
	ix.put(0, 7)
	if v, ok := ix.get(0); !ok || v != 7 {
		t.Fatalf("get(0) = (%d,%v), want (7,true)", v, ok)
	}
	ix.del(0)
	if _, ok := ix.get(0); ok {
		t.Fatal("get(0) present after del")
	}
}
