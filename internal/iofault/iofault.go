// Package iofault is the injectable filesystem seam behind the
// persistence layer. Production code writes checkpoints through the FS
// interface; tests and the chaos torture harness (internal/chaostest)
// substitute a fault-injecting implementation that realizes the failure
// modes a real machine exhibits around a crash — torn writes, short
// writes, write errors (EIO/ENOSPC), rename failures, and fsync loss —
// all seed-deterministically, so every torture run is reproducible from
// its seed.
//
// The seam is deliberately small: an append handle for the record
// log's per-record commits (OpenAppend), the operations its atomic
// write-temp-then-rename rewrite needs (ReadFile, CreateTemp, Rename,
// Remove), a directory listing for quarantine-corpse pruning (ReadDir),
// directory creation (MkdirAll), plus the File handle operations
// (Write, Sync, Close, Name). Passthrough (OS) adds nothing on top of
// the os package.
package iofault

import (
	"io"
	"os"
)

// File is the writable handle CreateTemp returns. The production
// implementation is a thin wrapper over *os.File; the chaos
// implementation buffers writes so it can tear, drop, or corrupt them
// at Close time.
type File interface {
	io.Writer
	// Sync flushes the file to stable storage (the durability point the
	// chaos implementation's fsync-loss fault attacks).
	Sync() error
	// Close finalizes the file. After a successful Close the bytes are
	// expected on disk — unless a fault decided otherwise.
	Close() error
	// Name returns the file's path.
	Name() string
}

// FS is the filesystem seam. Implementations must be safe for
// concurrent use (the checkpoint serializes its own flushes, but
// multiple checkpoints may share one FS).
type FS interface {
	// ReadFile reads the whole file at path.
	ReadFile(path string) ([]byte, error)
	// CreateTemp creates a new temporary file in dir (pattern as in
	// os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// OpenAppend opens path for appending, creating it if absent. This
	// is the record log's durability path (checkpoint and journal): each
	// record is Written and then Synced through the returned handle, so
	// the chaos implementation can tear, drop, or kill at exactly those
	// per-record commit points.
	OpenAppend(path string) (File, error)
	// ReadDir lists the entry names in dir (quarantine pruning scans a
	// checkpoint's directory for *.corrupt-<ts> siblings through the
	// seam so tests can fault or observe the deletions).
	ReadDir(dir string) ([]string, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// MkdirAll creates a directory (and parents) — the journal creates
	// its directory on open.
	MkdirAll(path string) error
}

// OS is the passthrough implementation: every call maps 1:1 onto the
// os package.
type OS struct{}

// ReadFile implements FS.
func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// CreateTemp implements FS.
func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// OpenAppend implements FS.
func (OS) OpenAppend(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// ReadDir implements FS.
func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(path string) error { return os.Remove(path) }

// MkdirAll implements FS.
func (OS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }
