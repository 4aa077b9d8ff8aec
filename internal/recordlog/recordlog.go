// Package recordlog is the crash-consistent log of verified records
// under both durable stores: the simulation checkpoint and the serving
// tier's write-ahead job journal. A log is a JSONL file: one header line
// naming the schema (format and version), then one record per line,
// each carrying a SHA-256 that binds its kind, identity and payload.
//
// The write path is append-only. Append writes one line and fsyncs it;
// the fsync is the record's commit point, so the bytes a store writes
// grow with the records it holds, never with the number of times it
// writes them. Nothing is opened for writing until the first append, so
// opening a missing log, or a log whose records are all already held,
// creates nothing.
//
// Damage is expected, not exceptional. Open verifies every line and
// salvages each record whose checksum holds; a damaged file is
// quarantined to <path>.corrupt-<unixnano> (the newest QuarantineKeep
// corpses are kept), and the salvaged records are rewritten at once
// through the atomic temp+fsync+rename path. An append that fails
// leaves the log unhealed: the next append first rewrites the whole log
// the same atomic way, so a torn prefix never sits in front of good
// records. There is no migration: a file of another version is
// quarantined whole and its records are not read.
//
// All I/O goes through the iofault.FS seam, so the chaos torture
// harnesses attack exactly this machinery.
package recordlog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"path/filepath"
	"sync"
	"time"

	"tivapromi/internal/iofault"
	"tivapromi/internal/jsonlit"
)

// Typed damage classes, reported through Report.Err and matchable with
// errors.Is.
var (
	// ErrCorrupt marks a log that was torn, truncated, bit-flipped or
	// otherwise damaged. Records whose checksums verified were salvaged.
	ErrCorrupt = errors.New("recordlog: corrupt")
	// ErrVersion marks a log written by another format version. Nothing
	// is salvaged: guessing at another format is worse than starting
	// over.
	ErrVersion = errors.New("recordlog: version mismatch")
)

// errClosed is returned by Append after Close.
var errClosed = errors.New("recordlog: log is closed")

// Record is one log entry: a kind, an identity (ID, plus Sub for
// two-part keys) and a JSON payload. The records Open passes to accept
// carry a Data that aliases the bytes read from the file; a schema may
// keep it but must not modify it.
type Record struct {
	Kind string
	ID   string
	Sub  string
	Data json.RawMessage
}

// line is the on-disk shape of the header (Format + Version) and of
// every record (K, identity, Sum, Data).
type line struct {
	Format  string          `json:"format,omitempty"`
	Version int             `json:"version,omitempty"`
	K       string          `json:"k,omitempty"`
	ID      string          `json:"id,omitempty"`
	Sub     string          `json:"sub,omitempty"`
	Sum     string          `json:"sum,omitempty"`
	Data    json.RawMessage `json:"data,omitempty"`
}

// sum is the per-record checksum in hex: SHA-256 over kind, ID, Sub
// and the payload bytes, NUL-separated. A flipped bit anywhere in a
// record — key or data — fails verification, so a damaged record can
// never be resurrected under the wrong identity.
func sum(kind, id, sub string, data []byte) string {
	return hex.EncodeToString(digest(sha256.New(), nil, []byte(kind), []byte(id), []byte(sub), data))
}

// nul separates the checksummed fields.
var nul = []byte{0}

// digest writes the checksum input into h and appends the digest to
// dst.
func digest(h hash.Hash, dst, kind, id, sub, data []byte) []byte {
	h.Reset()
	for _, f := range [...][]byte{kind, id, sub} {
		h.Write(f)
		h.Write(nul)
	}
	h.Write(data)
	return h.Sum(dst)
}

// encode renders one newline-terminated line. HTML escaping is off so
// the payload bytes on disk are exactly the compacted bytes the
// checksum covers.
func encode(l line) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(l); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeRecord renders r as a checksummed record line.
func encodeRecord(r Record) ([]byte, error) {
	var data bytes.Buffer
	if err := json.Compact(&data, r.Data); err != nil {
		return nil, fmt.Errorf("recordlog: %s record payload: %w", r.Kind, err)
	}
	return encode(line{K: r.Kind, ID: r.ID, Sub: r.Sub,
		Sum: sum(r.Kind, r.ID, r.Sub, data.Bytes()), Data: data.Bytes()})
}

// Report describes what Open found on disk. A clean load reports
// Records with everything else zero.
type Report struct {
	// Records is the number of verified records kept.
	Records int
	// Dropped is the number of lines discarded because they did not
	// verify (or the schema refused them).
	Dropped int
	// Quarantined is the path the damaged original was renamed to (""
	// when no quarantine happened).
	Quarantined string
	// Err classifies the damage (ErrCorrupt or ErrVersion); nil for a
	// clean load.
	Err error
}

// Log is an open record log. Appends are serialized; a Log is safe for
// concurrent use.
type Log struct {
	mu     sync.Mutex
	path   string
	fs     iofault.FS
	header []byte
	// lines holds every record line the log holds, newline-terminated,
	// so a heal can rewrite the whole log.
	lines [][]byte
	// f is the append handle, nil until the first append.
	f iofault.File
	// fresh: the file is missing or empty, so the first append writes
	// the header too.
	fresh bool
	// heal: the file on disk cannot be appended to (a failed append, or
	// damage that could not be rewritten), so the next append rewrites
	// the whole log atomically.
	heal   bool
	closed bool
}

// Open opens the log at path through fsys (nil means iofault.OS),
// verifying every line against the schema's format and version. Each
// verified record is passed to accept in file order; a non-nil error
// refuses the record, which then counts as dropped damage. A missing
// file is an empty log. Open fails only when the file cannot be read or
// the salvaged records cannot be rewritten; damage itself is reported,
// not returned.
func Open(path string, fsys iofault.FS, format string, version int, accept func(Record) error) (*Log, Report, error) {
	if fsys == nil {
		fsys = iofault.OS{}
	}
	header, err := encode(line{Format: format, Version: version})
	if err != nil {
		return nil, Report{}, err
	}
	l := &Log{path: path, fs: fsys, header: header}
	raw, err := fsys.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist) || (err == nil && len(raw) == 0):
		l.fresh = true
		return l, Report{}, nil
	case err != nil:
		return nil, Report{}, fmt.Errorf("recordlog: read %s: %w", path, err)
	}
	rep := l.parse(raw, format, version, accept)
	if rep.Err == nil {
		return l, rep, nil
	}
	// Quarantine the damaged original before anything overwrites it.
	q := fmt.Sprintf("%s.corrupt-%d", path, time.Now().UnixNano())
	if fsys.Rename(path, q) == nil {
		rep.Quarantined = q
		// Best-effort: bound the forensic corpses this path accumulates.
		pruneQuarantine(fsys, path)
		l.fresh = true
	} else {
		l.heal = true
	}
	if len(l.lines) > 0 {
		// Persist the salvage right away, so a crash before the next
		// append cannot lose it again.
		if err := l.rewrite(nil); err != nil {
			return nil, rep, fmt.Errorf("recordlog: rewrite salvaged %s: %w", path, err)
		}
	}
	return l, rep, nil
}

// parse walks raw, keeping every record that verifies and that accept
// takes. Only the header goes through encoding/json; each record line
// is scanned once, by scanner.record. It never panics on any input.
func (l *Log) parse(raw []byte, format string, version int, accept func(Record) error) Report {
	var rep Report
	damage := func(msg string, args ...any) {
		rep.Dropped++
		if rep.Err == nil {
			rep.Err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(msg, args...))
		}
	}
	first, rest, ok := splitLine(raw)
	var h line
	parsed := json.Unmarshal(first, &h) == nil
	switch {
	// A header of this format — or a legacy headerless document — that
	// names another version.
	case parsed && (h.Format == format || h.Format == "") && h.Version != 0 && h.Version != version:
		rep.Err = fmt.Errorf("%w: file version %d, want %d", ErrVersion, h.Version, version)
		return rep
	case !parsed || !ok || h.Format != format || h.Version != version:
		rep.Err = fmt.Errorf("%w: missing or unparseable header", ErrCorrupt)
		return rep
	}
	off := len(first) + 1
	sc := scanner{h: sha256.New()}
	l.lines = make([][]byte, 0, bytes.Count(rest, []byte{'\n'}))
	for len(rest) > 0 {
		ln, next, ok := splitLine(rest)
		at := off
		off += len(rest) - len(next)
		rest = next
		if !ok {
			damage("torn final line at offset %d", at)
			break
		}
		r, ok := sc.record(ln)
		if !ok {
			damage("record at offset %d failed verification", at)
			continue
		}
		if err := accept(r); err != nil {
			damage("record at offset %d: %v", at, err)
			continue
		}
		// The held line aliases raw, newline included.
		l.lines = append(l.lines, raw[at:off:off])
		rep.Records++
	}
	return rep
}

// splitLine returns the first line of b (without the newline), the
// remainder after it, and whether a newline terminated the line.
func splitLine(b []byte) (ln, rest []byte, ok bool) {
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		return b, nil, false
	}
	return b[:i], b[i+1:], true
}

// scanner parses record lines. Its hash and buffers are reused from
// line to line, so a record that verifies costs only the strings of
// its identity.
type scanner struct {
	h    hash.Hash
	sum  []byte
	hex  [2 * sha256.Size]byte
	kind string // the previous record's kind, reused while it repeats
}

// record parses one line in exactly the layout encode writes,
//
//	{"k":KIND,"id":ID,"sub":SUB,"sum":HEX,"data":PAYLOAD}
//
// with "id" and "sub" present only when non-empty, and verifies the
// checksum over the payload bytes in place. Data aliases ln. Any other
// layout — whitespace, reordered, repeated or extra fields, an empty
// string field, an escaped or upper-case sum — was not written by
// encode, so it is refused as damage.
func (sc *scanner) record(ln []byte) (Record, bool) {
	var f [3][]byte // kind, ID, Sub
	for i, key := range [...]string{`{"k":`, `,"id":`, `,"sub":`} {
		rest, ok := cut(ln, key)
		switch {
		case !ok && i == 0:
			return Record{}, false
		case !ok:
			continue // an omitted empty ID or Sub
		}
		v, n, ok := jsonlit.String(rest)
		if !ok || len(v) == 0 {
			return Record{}, false
		}
		f[i], ln = v, rest[n:]
	}
	rest, ok := cut(ln, `,"sum":"`)
	if !ok || len(rest) <= len(sc.hex) || rest[len(sc.hex)] != '"' {
		return Record{}, false
	}
	data, ok := cut(rest[len(sc.hex)+1:], `,"data":`)
	if !ok || len(data) < 2 || data[len(data)-1] != '}' {
		return Record{}, false
	}
	data = data[:len(data)-1]
	sc.sum = digest(sc.h, sc.sum[:0], f[0], f[1], f[2], data)
	hex.Encode(sc.hex[:], sc.sum)
	if !bytes.Equal(sc.hex[:], rest[:len(sc.hex)]) {
		return Record{}, false
	}
	if string(f[0]) != sc.kind {
		sc.kind = string(f[0])
	}
	return Record{Kind: sc.kind, ID: string(f[1]), Sub: string(f[2]), Data: data}, true
}

// cut returns b without the literal prefix, and whether b had it.
func cut(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return nil, false
	}
	return b[len(prefix):], true
}

// Append commits one record: one write, one fsync. A record whose
// Append returned nil is durable; one whose Append failed is not in the
// log, and the next Append heals the file first.
func (l *Log) Append(r Record) error {
	ln, err := encodeRecord(r)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if l.heal {
		return l.rewrite(ln)
	}
	if l.f == nil {
		f, err := l.fs.OpenAppend(l.path)
		if err != nil {
			return fmt.Errorf("recordlog: open %s: %w", l.path, err)
		}
		l.f = f
	}
	buf := ln
	if l.fresh {
		buf = append(append([]byte(nil), l.header...), ln...)
	}
	n, err := l.f.Write(buf)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		// Part of the line may have reached the file: stop appending
		// behind it until a whole-log rewrite has replaced the file.
		l.f.Close()
		l.f = nil
		l.heal = true
		return fmt.Errorf("recordlog: append %s: %w", l.path, err)
	}
	l.fresh = false
	l.lines = append(l.lines, ln)
	return nil
}

// rewrite replaces the file atomically with the header, every held
// line and then extra (if any), which joins the log on success.
// Requires l.mu held (or exclusive access, as in Open).
func (l *Log) rewrite(extra []byte) error {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	size := len(l.header) + len(extra)
	for _, ln := range l.lines {
		size += len(ln)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, l.header...)
	for _, ln := range l.lines {
		buf = append(buf, ln...)
	}
	buf = append(buf, extra...)
	if err := atomicWrite(l.fs, l.path, buf); err != nil {
		l.heal = true
		return err
	}
	l.heal, l.fresh = false, false
	if extra != nil {
		l.lines = append(l.lines, extra)
	}
	return nil
}

// atomicWrite writes raw to path with the crash-consistent dance: temp
// file in path's directory, write, fsync, close, rename over the
// target. Any failure removes the temp file and leaves the previous
// target untouched.
func atomicWrite(fsys iofault.FS, path string, raw []byte) error {
	tmp, err := fsys.CreateTemp(filepath.Dir(path), ".recordlog-*.tmp")
	if err != nil {
		return fmt.Errorf("recordlog: temp: %w", err)
	}
	name := tmp.Name()
	fail := func(step string, err error) error {
		fsys.Remove(name)
		return fmt.Errorf("recordlog: %s %s: %w", step, path, err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fail("write", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fail("sync", err)
	}
	if err := tmp.Close(); err != nil {
		return fail("close", err)
	}
	if err := fsys.Rename(name, path); err != nil {
		return fail("rename", err)
	}
	return nil
}

// Close releases the append handle; appends after Close fail.
// Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
