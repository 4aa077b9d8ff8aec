package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzResultPayload pins decodeResult to encoding/json. For fuzzed
// field values, it must decode json.Marshal(r) back to r. For arbitrary
// bytes, whenever it accepts a payload, json.Unmarshal must accept it
// too and yield the same Result. Results compare bit for bit
// (sameResult), so a decoder that loses the sign of a negative zero
// fails.
func FuzzResultPayload(f *testing.F) {
	canonical, _ := json.Marshal(Result{Technique: "LoLiPRoMi", Policy: "neighbors", Seed: 3,
		TotalActs: 1 << 40, OverheadPct: 0.1234, Flips: -2, AvgActsPerInterval: 1e-7})
	f.Add("PARA", "neighbors", uint64(1), uint64(100), uint64(7), uint64(3), uint64(1),
		uint64(165), uint64(0), uint64(0), uint64(0), 0, 64, 0.5, 0.25, 40.5, canonical)
	f.Add(`<a&b>"q"\`, "é漢字\u2028", uint64(math.MaxUint64), uint64(0), uint64(0), uint64(0),
		uint64(0), uint64(0), uint64(1), uint64(2), uint64(3), math.MinInt64, math.MaxInt64,
		math.Copysign(0, -1), 1e300, 5e-324, []byte(`{"Technique":"<","Policy":"😀"}`))
	f.Add("", "\x00\x1f\x7f", uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0),
		uint64(0), uint64(0), uint64(0), 0, 0, 1e21, 1e-6, 123456789.125,
		bytes.Replace(canonical, []byte(`"Seed":3`), []byte(`"Seed":3.0`), 1))
	f.Add("x", "y", uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0),
		uint64(0), uint64(0), uint64(0), 0, 0, 0.0, 0.0, 0.0,
		bytes.Replace(canonical, []byte(`"Flips":-2`), []byte(`"Flips":-0`), 1))
	f.Add("x", "y", uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0),
		uint64(0), uint64(0), uint64(0), 0, 0, 0.0, math.Copysign(0, -1), math.Copysign(0, -1),
		bytes.Replace(canonical, []byte(`"OverheadPct":0.1234`), []byte(`"OverheadPct":-0`), 1))
	f.Fuzz(func(t *testing.T, tech, pol string, seed, total, att, extra, falseActs, maxActs, inj, drop, delay uint64,
		flips, table int, over, fpr, avg float64, raw []byte) {
		// json.Marshal rewrites invalid UTF-8, so only valid names can
		// round-trip.
		r := Result{
			Technique: strings.ToValidUTF8(tech, "\ufffd"), Policy: strings.ToValidUTF8(pol, "\ufffd"),
			Seed: seed, TotalActs: total, AttackerActs: att, ExtraActs: extra, FalseActs: falseActs,
			OverheadPct: over, FPRPct: fpr, Flips: flips, TableBytes: table,
			AvgActsPerInterval: avg, MaxActsPerInterval: maxActs,
			InjectedFaults: inj, DroppedCmds: drop, DelayedCmds: delay,
		}
		if data, err := json.Marshal(r); err == nil { // NaN and Inf do not marshal
			got, ok := decodeResult(data, nameTab{})
			if !ok || !sameResult(got, r) {
				t.Fatalf("decodeResult(%s) = %+v, %v; want %+v", data, got, ok, r)
			}
		}
		if got, ok := decodeResult(raw, nameTab{}); ok {
			var want Result
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("decodeResult accepted %q, which encoding/json refuses: %v", raw, err)
			}
			if !sameResult(got, want) {
				t.Fatalf("decodeResult(%q) = %+v, encoding/json = %+v", raw, got, want)
			}
			if !utf8.ValidString(got.Technique) || !utf8.ValidString(got.Policy) {
				t.Fatalf("decodeResult returned invalid UTF-8 from %q", raw)
			}
		}
	})
}

// sameResult reports whether a and b are equal with their float fields
// compared bit for bit: == and reflect.DeepEqual take -0 for +0.
func sameResult(a, b Result) bool {
	bits := func(r Result) [3]uint64 {
		return [3]uint64{math.Float64bits(r.OverheadPct), math.Float64bits(r.FPRPct), math.Float64bits(r.AvgActsPerInterval)}
	}
	return a == b && bits(a) == bits(b)
}

// writeLoadFixture writes a checkpoint of n sweep records, two seeds
// per run fingerprint, with result values of realistic width.
func writeLoadFixture(tb testing.TB, n int) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "checkpoint.jsonl")
	ck, err := LoadCheckpoint(path)
	if err != nil {
		tb.Fatal(err)
	}
	techs := []string{"PARA", "LoLiPRoMi", "TWiCe", "CaPRoMi", "none"}
	for i := 0; i < n; i++ {
		seed := uint64(i%2 + 1)
		res := Result{Technique: techs[i%len(techs)], Policy: "neighbors", Seed: seed,
			TotalActs: 2_654_321 + uint64(i), AttackerActs: 1_725_308 + uint64(i), ExtraActs: uint64(i) * 37,
			FalseActs: uint64(i) * 11, OverheadPct: float64(i) / 7, FPRPct: float64(i) / 13,
			TableBytes: 1 << 10, AvgActsPerInterval: 40.123456789 + float64(i), MaxActsPerInterval: 165}
		if err := ck.record(fmt.Sprintf("%032x", i/2), seed, res); err != nil {
			tb.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestLoadCheckpointAllocsPerRecord bounds the allocations of a warm
// restart's checkpoint load: each sweep record's line is scanned once
// and its payload decoded without reflection, so a record costs its
// identity strings and its share of the maps, not a reflective decode.
func TestLoadCheckpointAllocsPerRecord(t *testing.T) {
	const n = 300
	path := writeLoadFixture(t, n)
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	if rep := ck.LoadReport(); rep.Err != nil || rep.Entries != n {
		t.Fatalf("fixture loads as %+v, want %d clean entries", rep, n)
	}
	allocs := testing.AllocsPerRun(10, func() {
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		ck.Close()
	})
	if per := allocs / n; per > 12 {
		t.Fatalf("loading a %d-record checkpoint makes %.1f allocations per record, want <= 12", n, per)
	}
}

// BenchmarkLoadCheckpoint times a warm restart's checkpoint load of 300
// sweep records.
func BenchmarkLoadCheckpoint(b *testing.B) {
	const n = 300
	path := writeLoadFixture(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck, err := LoadCheckpoint(path)
		if err != nil {
			b.Fatal(err)
		}
		ck.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
}

// TestLoadsFormatV3Fixture: a checkpoint written by the encoding/json
// line parser's release of format version 3 (testdata/compat) loads
// clean, with every sweep and probe record held and equal to what
// encoding/json reads from the same line. Its rendered-section output
// record is dropped: not held, not damage, and the file is left as it
// is.
func TestLoadsFormatV3Fixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "compat", "checkpoint-v3.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "checkpoint.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")[1:]
	kinds := map[string]int{}
	for _, ln := range lines {
		var rec struct {
			K, ID, Sub string
			Data       json.RawMessage
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatal(err)
		}
		kinds[rec.K]++
		switch rec.K {
		case kindSweep:
			var want Result
			if err := json.Unmarshal(rec.Data, &want); err != nil {
				t.Fatal(err)
			}
			if got := ck.sweeps[sweepKey{rec.ID, rec.Sub}]; !reflect.DeepEqual(got, want) {
				t.Fatalf("sweep %s/%s holds %+v, want %+v", rec.ID, rec.Sub, got, want)
			}
		case kindProbe:
			if !bytes.Equal(ck.probes[rec.ID], rec.Data) {
				t.Fatalf("probe %s holds %s, want %s", rec.ID, ck.probes[rec.ID], rec.Data)
			}
		}
	}
	if kinds[kindSweep] == 0 || kinds[kindProbe] == 0 || kinds[kindOutput] == 0 {
		t.Fatalf("fixture lacks a record kind: %v", kinds)
	}
	want := kinds[kindSweep] + kinds[kindProbe]
	if rep := ck.LoadReport(); rep.Err != nil || rep.Dropped != 0 || rep.Quarantined != "" || rep.Entries != want {
		t.Fatalf("fixture loads as %+v, want %d clean entries", rep, want)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, raw) {
		t.Fatal("a clean load rewrote the checkpoint")
	}
}
