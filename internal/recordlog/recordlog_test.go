package recordlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"tivapromi/internal/iofault"
)

const (
	testFormat  = "recordlog-test"
	testVersion = 1
)

// collect is an accept callback that keeps every record.
func collect(into *[]Record) func(Record) error {
	return func(r Record) error {
		*into = append(*into, r)
		return nil
	}
}

func testRecord(i int) Record {
	return Record{Kind: "k", ID: fmt.Sprintf("id-%d", i), Sub: fmt.Sprint(i % 3),
		Data: json.RawMessage(fmt.Sprintf(`{"n":%d,"s":"<%d>"}`, i, i))}
}

// reopen loads path and returns its records and report.
func reopen(t *testing.T, path string) ([]Record, Report) {
	t.Helper()
	var got []Record
	l, rep, err := Open(path, nil, testFormat, testVersion, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return got, rep
}

// TestOpenMissingCreatesNothing: opening a missing log, and closing it
// without an append, leaves nothing on disk.
func TestOpenMissingCreatesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	l, rep, err := Open(path, nil, testFormat, testVersion, collect(new([]Record)))
	if err != nil || rep != (Report{}) {
		t.Fatalf("open missing: %+v, %v", rep, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if names, _ := os.ReadDir(dir); len(names) != 0 {
		t.Fatalf("open+close of a missing log left %d file(s)", len(names))
	}
	if err := l.Append(testRecord(1)); !errors.Is(err, errClosed) {
		t.Fatalf("append after close: %v, want errClosed", err)
	}
}

// TestAppendRoundTrip: appended records reload verbatim, in order,
// across two sessions of appends.
func TestAppendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	var want []Record
	for session := 0; session < 2; session++ {
		l, _, err := Open(path, nil, testFormat, testVersion, collect(new([]Record)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			r := testRecord(session*3 + i)
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
		l.Close()
	}
	got, rep := reopen(t, path)
	if rep.Err != nil || rep.Records != len(want) {
		t.Fatalf("report %+v, want %d clean records", rep, len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded %+v\nwant %+v", got, want)
	}
}

// scriptFS fails the failAt-th append Write (1-based) in one of three
// ways; every other operation passes through to the real filesystem.
type scriptFS struct {
	iofault.OS
	mode   string
	failAt int
	writes int
}

func (s *scriptFS) OpenAppend(path string) (iofault.File, error) {
	f, err := s.OS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &scriptFile{File: f, fs: s}, nil
}

type scriptFile struct {
	iofault.File
	fs *scriptFS
}

func (f *scriptFile) Write(p []byte) (int, error) {
	f.fs.writes++
	if f.fs.writes != f.fs.failAt {
		return f.File.Write(p)
	}
	half := len(p) / 2
	switch f.fs.mode {
	case "write-error":
		f.File.Write(p[:half])
		return half, syscall.EIO
	case "short-write":
		// A misbehaving writer: a prefix lands and no error is reported.
		n, _ := f.File.Write(p[:half])
		return n, nil
	default: // "enospc"
		n, _ := f.File.Write(p[:half])
		return n, syscall.ENOSPC
	}
}

// TestFailedAppendHeals: an append that fails midway may leave a torn
// prefix in the file. The next append must rewrite the log instead of
// appending behind it, so every record whose Append returned nil
// reloads, and the reload is clean — no damage, no quarantine.
func TestFailedAppendHeals(t *testing.T) {
	for _, mode := range []string{"write-error", "short-write", "enospc"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "log")
			fsys := &scriptFS{mode: mode, failAt: 4}
			l, _, err := Open(path, fsys, testFormat, testVersion, collect(new([]Record)))
			if err != nil {
				t.Fatal(err)
			}
			var committed []Record
			failed := 0
			for i := 0; i < 8; i++ {
				r := testRecord(i)
				if err := l.Append(r); err != nil {
					failed++
					continue
				}
				committed = append(committed, r)
			}
			l.Close()
			if failed != 1 {
				t.Fatalf("%d appends failed, want exactly the scripted one", failed)
			}
			got, rep := reopen(t, path)
			if rep.Err != nil || rep.Dropped != 0 || rep.Quarantined != "" {
				t.Fatalf("reload after a healed append is not clean: %+v", rep)
			}
			if !reflect.DeepEqual(got, committed) {
				t.Fatalf("reloaded %d records, want the %d committed ones", len(got), len(committed))
			}
			if names, _ := filepath.Glob(path + ".corrupt-*"); len(names) != 0 {
				t.Fatalf("quarantine corpses %v after a clean heal", names)
			}
		})
	}
}

// TestDamageQuarantinesAndRewrites: a flipped record is dropped, the
// original quarantined byte for byte, and the salvage rewritten at once,
// so the next open is clean with the same records.
func TestDamageQuarantinesAndRewrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, err := Open(path, nil, testFormat, testVersion, collect(new([]Record)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	raw, _ := os.ReadFile(path)
	bad := bytes.Replace(raw, []byte(`"n":1`), []byte(`"n":9`), 1)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	got, rep := reopen(t, path)
	if !errors.Is(rep.Err, ErrCorrupt) || rep.Dropped != 1 || rep.Records != 2 || rep.Quarantined == "" {
		t.Fatalf("report %+v, want 1 dropped, 2 kept, quarantined", rep)
	}
	if corpse, _ := os.ReadFile(rep.Quarantined); !bytes.Equal(corpse, bad) {
		t.Fatal("quarantine corpse is not the damaged original")
	}
	again, rep2 := reopen(t, path)
	if rep2.Err != nil || !reflect.DeepEqual(again, got) {
		t.Fatalf("rewritten salvage: %+v, records %v; want clean %v", rep2, again, got)
	}
}

// TestOtherVersionQuarantinedWhole: a log of another version salvages
// nothing — there is no migration — and appends start a fresh file.
func TestOtherVersionQuarantinedWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	old, _, err := Open(path, nil, testFormat, testVersion+1, collect(new([]Record)))
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	old.Close()
	var got []Record
	l, rep, err := Open(path, nil, testFormat, testVersion, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rep.Err, ErrVersion) || rep.Quarantined == "" || len(got) != 0 {
		t.Fatalf("report %+v with %d records, want a quarantined version mismatch", rep, len(got))
	}
	if err := l.Append(testRecord(2)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if recs, rep := reopen(t, path); rep.Err != nil || len(recs) != 1 {
		t.Fatalf("fresh log after quarantine: %+v, %d records", rep, len(recs))
	}
}

// FuzzRecordLog holds Open to the salvage contract on damaged images of
// a valid log (arbitrary bytes spliced in, one byte flipped, the tail
// cut): it never panics, it never resurrects a record that was not
// written, and the rewritten log reparses clean to the identical record
// set.
func FuzzRecordLog(f *testing.F) {
	seedPath := filepath.Join(f.TempDir(), "seed")
	l, _, err := Open(seedPath, nil, testFormat, testVersion, collect(new([]Record)))
	if err != nil {
		f.Fatal(err)
	}
	written := map[string]Record{}
	for i := 0; i < 4; i++ {
		r := testRecord(i)
		if err := l.Append(r); err != nil {
			f.Fatal(err)
		}
		written[r.ID] = r
	}
	l.Close()
	image, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(uint(0), []byte(nil), uint(0), byte(0), uint(0))
	f.Add(uint(len(image)/2), []byte(nil), uint(0), byte(0x80), uint(0))
	f.Add(uint(0), []byte(nil), uint(0), byte(0), uint(len(image)-7))
	f.Add(uint(len(image)), []byte("{\"k\":\"k\",\"id\":\"x\",\"sum\":\"bad\",\"data\":{}}\n"), uint(0), byte(0), uint(0))
	f.Add(uint(0), []byte(`{"format":"recordlog-test","version":2}`+"\n"), uint(0), byte(0), uint(0))
	f.Add(uint(40), []byte("\x00\xff\n\n"), uint(3), byte(1), uint(0))
	f.Fuzz(func(t *testing.T, at uint, junk []byte, pos uint, flip byte, cut uint) {
		at %= uint(len(image)) + 1
		mut := append(append(append([]byte(nil), image[:at]...), junk...), image[at:]...)
		mut[pos%uint(len(mut))] ^= flip
		if cut > 0 {
			mut = mut[:cut%uint(len(mut)+1)]
		}
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []Record
		l, rep, err := Open(path, nil, testFormat, testVersion, collect(&got)) // must not panic
		if err != nil {
			t.Fatalf("open of a damaged image failed instead of salvaging: %v", err)
		}
		l.Close()
		if rep.Records != len(got) || rep.Dropped < 0 {
			t.Fatalf("report %+v disagrees with %d salvaged records", rep, len(got))
		}
		for _, r := range got {
			w, ok := written[r.ID]
			if !ok || !reflect.DeepEqual(r, w) {
				t.Fatalf("resurrected a record that was never written: %+v", r)
			}
		}
		if len(got) == 0 {
			return
		}
		again, rep2 := reopen(t, path)
		if rep2.Err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("rewritten log reparses to %+v (%v), want %+v", again, rep2.Err, got)
		}
	})
}

// TestIdentityEscapesRoundTrip: kinds, IDs and Subs that JSON must
// escape, or that encode writes raw (HTML characters, non-ASCII text),
// come back from the line scan exactly as appended.
func TestIdentityEscapesRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, err := Open(path, nil, testFormat, testVersion, collect(new([]Record)))
	if err != nil {
		t.Fatal(err)
	}
	odd := []string{`"`, `\`, `<`, `&`, "\u2028", "\u2029", "é漢字", `a"b\c<d>&e`, "tab\tnl\n", "\x01", "\ufffd", "\U0001F600"}
	var want []Record
	for i, s := range odd {
		r := Record{Kind: "k" + s, ID: s, Sub: s + s, Data: json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))}
		if i%3 == 0 {
			r.Sub = "" // an omitted Sub next to an escaped ID
		}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	l.Close()
	got, rep := reopen(t, path)
	if rep.Err != nil || rep.Records != len(want) {
		t.Fatalf("report %+v, want %d clean records", rep, len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded %q\nwant %q", got, want)
	}
}

// TestNonCanonicalLinesAreDamage: a line whose checksum holds but whose
// envelope is not the exact layout encode writes — fields reordered,
// repeated or extra, whitespace, an empty field written out, escapes
// where encode writes none — is dropped as damage, and the rewritten
// log does not bring it back.
func TestNonCanonicalLinesAreDamage(t *testing.T) {
	good := Record{Kind: "k", ID: "id", Sub: "s", Data: json.RawMessage(`{"n":1}`)}
	sm := sum(good.Kind, good.ID, good.Sub, good.Data)
	canonical := fmt.Sprintf(`{"k":"k","id":"id","sub":"s","sum":"%s","data":{"n":1}}`, sm)
	bad := []string{
		fmt.Sprintf(`{"id":"id","k":"k","sub":"s","sum":"%s","data":{"n":1}}`, sm),
		fmt.Sprintf(`{"k":"k","sub":"s","id":"id","sum":"%s","data":{"n":1}}`, sm),
		fmt.Sprintf(`{"k":"k","id":"id","sub":"s","data":{"n":1},"sum":"%s"}`, sm),
		fmt.Sprintf(`{"k":"k","id":"id","id":"id","sub":"s","sum":"%s","data":{"n":1}}`, sm),
		fmt.Sprintf(`{"k":"k","id":"id","sub":"s","x":1,"sum":"%s","data":{"n":1}}`, sm),
		fmt.Sprintf(`{"k":"k","id":"id","sub":"s","sum":"%s","data":{"n":1},"x":1}`, sm),
		fmt.Sprintf(`{"k": "k","id":"id","sub":"s","sum":"%s","data":{"n":1}}`, sm),
		fmt.Sprintf(`{"k":"k","id":"id","sub":"s","sum":"%s","data":{"n":1}} `, sm),
		fmt.Sprintf(`{"k":"k","id":"id","sub":"s","sum":"%s","data":{"n":1}`, sm),
		fmt.Sprintf(`{"k":"k","id":"id","sub":"s","sum":"%s","data":{"n":1}}`, strings.ToUpper(sm)),
		fmt.Sprintf(`{"k":"k","id":"id","sub":"s","sum":"\u%04x%s","data":{"n":1}}`, sm[0], sm[1:]),
		fmt.Sprintf(`{"k":"k","id":"id","sub":"s","sub":"","sum":"%s","data":{"n":1}}`, sm),
		fmt.Sprintf(`{"k":"k","id":"","id":"id","sub":"s","sum":"%s","data":{"n":1}}`, sm),
		fmt.Sprintf(`{"k":"k","id":"id","sub":"s","sum":"%s","data":{"n":1}}x`, sm),
		fmt.Sprintf(`{"k":"k","id":"id","sub":"s","sum":"%s","data":}`, sm),
		fmt.Sprintf(`{"k":"k","id":"id","sub":"s","sum":"%s","data":{"n":1}}`, sum(good.Kind, good.ID, "", good.Data)),
	}
	// The scan decodes escapes, so an escaped identity that encode
	// would have written raw still names the same record.
	escaped := fmt.Sprintf(`{"k":"\u006b","id":"i\u0064","sub":"\u0073","sum":"%s","data":{"n":1}}`, sm)
	image := `{"format":"recordlog-test","version":1}` + "\n" + canonical + "\n" +
		strings.Join(bad, "\n") + "\n" + escaped + "\n"
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte(image), 0o644); err != nil {
		t.Fatal(err)
	}
	got, rep := reopen(t, path)
	if !errors.Is(rep.Err, ErrCorrupt) || rep.Dropped != len(bad) || rep.Records != 2 {
		t.Fatalf("report %+v, want %d dropped and 2 kept", rep, len(bad))
	}
	for _, r := range got {
		if !reflect.DeepEqual(r, good) {
			t.Fatalf("kept %+v, want only %+v", r, good)
		}
	}
	again, rep2 := reopen(t, path)
	if rep2.Err != nil || !reflect.DeepEqual(again, got) {
		t.Fatalf("rewritten log: %+v, records %v; want clean %v", rep2, again, got)
	}
}
