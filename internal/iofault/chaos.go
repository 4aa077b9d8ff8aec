package iofault

import (
	"errors"
	"fmt"
	"sync"

	"tivapromi/internal/obs"
	"tivapromi/internal/rng"
)

// Injected fault errors. They are distinct sentinel values so tests can
// tell an injected failure from a real one with errors.Is.
var (
	// ErrInjectedIO is the chaos stand-in for EIO.
	ErrInjectedIO = errors.New("iofault: injected I/O error")
	// ErrInjectedNoSpace is the chaos stand-in for ENOSPC.
	ErrInjectedNoSpace = errors.New("iofault: injected no space left on device")
	// ErrPoweredOff is returned by every mutating operation after
	// PowerOff: the moment the simulated machine died. Unsynced append
	// tails vanish with it.
	ErrPoweredOff = errors.New("iofault: powered off")
)

// ChaosConfig sets the per-operation fault probabilities of a Chaos FS.
// All probabilities are in [0, 1] and are evaluated independently per
// operation from the seeded stream; the zero value injects nothing.
type ChaosConfig struct {
	// Seed drives every fault decision. Two Chaos FSes with the same
	// seed and the same operation sequence make identical decisions.
	Seed uint64

	// TornWrite silently persists only a prefix of a Write while
	// reporting full success — the classic crash-mid-write outcome.
	TornWrite float64
	// ShortWrite persists a prefix and reports it (n < len(p) with
	// io.ErrShortWrite), the well-behaved sibling of TornWrite.
	ShortWrite float64
	// WriteErr fails a Write outright with ErrInjectedIO.
	WriteErr float64
	// NoSpace fails a Write with ErrInjectedNoSpace.
	NoSpace float64
	// RenameFail fails a Rename with ErrInjectedIO, leaving the target
	// untouched (the temp file survives, the swap never happens).
	RenameFail float64
	// FsyncLoss makes Sync lie: it reports success without making the
	// unsynced tail durable, and the tail is dropped when the file is
	// closed — modeling a kill after fsync was acknowledged by a
	// caching layer but before writeback.
	FsyncLoss float64
	// BitFlip flips one random byte of the persisted content at Close —
	// silent media corruption.
	BitFlip float64
}

// ChaosStats counts the faults a Chaos FS injected.
type ChaosStats struct {
	TornWrites  int
	ShortWrites int
	WriteErrs   int
	NoSpaceErrs int
	RenameFails int
	FsyncLosses int
	BitFlips    int
	// Commits counts durability points — successful Renames and honest
	// Syncs on append handles — the boundaries a crash-consistency test
	// kills at.
	Commits int
}

// Total returns the number of injected faults (Commits excluded).
func (s ChaosStats) Total() int {
	return s.TornWrites + s.ShortWrites + s.WriteErrs + s.NoSpaceErrs +
		s.RenameFails + s.FsyncLosses + s.BitFlips
}

// Chaos is the fault-injecting FS. It wraps an inner FS (OS{} in
// practice), buffers file writes so faults can be applied to the final
// content, and draws every decision from one seeded deterministic
// stream. Safe for concurrent use; with a concurrent caller the fault
// decisions remain drawn from the same stream, but which operation gets
// which draw depends on scheduling (per-run reproducibility requires a
// serial caller, which is how the torture harness uses it).
type Chaos struct {
	mu    sync.Mutex
	inner FS
	cfg   ChaosConfig
	src   *rng.XorShift64Star
	stats ChaosStats

	// OnCommit, when non-nil, runs at every durability point — after a
	// successful Rename (with the destination path) and after an honest
	// Sync on an append handle (with the file's path) — with one shared
	// 1-based commit ordinal. The torture harnesses use it to kill a
	// campaign or power a server off at a randomized commit boundary.
	// Called without the Chaos lock held.
	OnCommit func(path string, commit int)

	// off, once set by PowerOff, fails every mutating operation: the
	// simulated machine is dead and nothing it attempts reaches disk.
	off bool
}

// PowerOff kills the simulated machine: every subsequent Write, Sync,
// Close, CreateTemp, OpenAppend, Rename, and Remove fails with
// ErrPoweredOff, and append tails that were never honestly synced are
// lost. A server sharing this FS can no longer journal its own death —
// exactly the asymmetry a crash-recovery test needs.
func (c *Chaos) PowerOff() {
	c.mu.Lock()
	c.off = true
	c.mu.Unlock()
}

// NewChaos wraps inner (nil means OS{}) with fault injection.
func NewChaos(inner FS, cfg ChaosConfig) *Chaos {
	if inner == nil {
		inner = OS{}
	}
	return &Chaos{inner: inner, cfg: cfg, src: rng.NewXorShift64Star(cfg.Seed ^ 0xc4a05)}
}

// Stats returns a snapshot of the injected-fault counters.
func (c *Chaos) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// roll draws one Bernoulli decision with probability p from the seeded
// stream. Requires c.mu held.
func (c *Chaos) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return rng.Float64(c.src) < p
}

// intn draws a bounded integer from the seeded stream. Requires c.mu
// held.
func (c *Chaos) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return rng.Intn(c.src, n)
}

// ReadFile implements FS (reads are passed through unfaulted: the
// checkpoint's read path is attacked via the bytes a faulted write left
// behind, which is the realistic channel).
func (c *Chaos) ReadFile(path string) ([]byte, error) { return c.inner.ReadFile(path) }

// poweredOff reports whether PowerOff has fired.
func (c *Chaos) poweredOff() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.off
}

// CreateTemp implements FS.
func (c *Chaos) CreateTemp(dir, pattern string) (File, error) {
	if c.poweredOff() {
		return nil, ErrPoweredOff
	}
	f, err := c.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &chaosFile{fs: c, inner: f}, nil
}

// OpenAppend implements FS. Unlike CreateTemp's buffered handle, the
// append handle keeps only the not-yet-synced tail in memory: an honest
// Sync pushes it to the real file (and fires OnCommit), an fsync-loss
// fault acknowledges without pushing, and PowerOff vaporizes whatever
// was still pending — the crash semantics of a real write-ahead log.
func (c *Chaos) OpenAppend(path string) (File, error) {
	if c.poweredOff() {
		return nil, ErrPoweredOff
	}
	f, err := c.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &chaosAppendFile{fs: c, inner: f}, nil
}

// ReadDir implements FS (passed through unfaulted, like ReadFile).
func (c *Chaos) ReadDir(dir string) ([]string, error) { return c.inner.ReadDir(dir) }

// Rename implements FS.
func (c *Chaos) Rename(oldpath, newpath string) error {
	c.mu.Lock()
	if c.off {
		c.mu.Unlock()
		return ErrPoweredOff
	}
	fail := c.roll(c.cfg.RenameFail)
	if fail {
		c.stats.RenameFails++
		obs.ChaosInjection("rename_fail")
	}
	c.mu.Unlock()
	if fail {
		return fmt.Errorf("iofault: rename %s: %w", newpath, ErrInjectedIO)
	}
	if err := c.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	c.commit(newpath)
	return nil
}

// commit counts one durability point and fires OnCommit outside the
// lock.
func (c *Chaos) commit(path string) {
	c.mu.Lock()
	c.stats.Commits++
	n := c.stats.Commits
	hook := c.OnCommit
	c.mu.Unlock()
	if hook != nil {
		hook(path, n)
	}
}

// Remove implements FS.
func (c *Chaos) Remove(path string) error {
	if c.poweredOff() {
		return ErrPoweredOff
	}
	return c.inner.Remove(path)
}

// MkdirAll implements FS (passed through unfaulted: directory creation
// happens once per journal, before any durability boundary worth
// attacking — the interesting faults live in the write/rename path).
func (c *Chaos) MkdirAll(path string) error { return c.inner.MkdirAll(path) }

// chaosFile buffers all writes in memory, applying write-time faults,
// and materializes the (possibly torn, truncated, or corrupted) final
// content into the real temp file at Close.
type chaosFile struct {
	fs    *Chaos
	inner File
	buf   []byte
	// durable is the watermark of the last honest Sync; an fsync-loss
	// fault truncates the persisted content to it at Close.
	durable  int
	lostSync bool
	closed   bool
}

// shortWriteErr mirrors io.ErrShortWrite without importing io here.
var shortWriteErr = errors.New("short write")

// Write implements io.Writer with injected write faults.
func (f *chaosFile) Write(p []byte) (int, error) {
	c := f.fs
	c.mu.Lock()
	if c.off {
		c.mu.Unlock()
		return 0, ErrPoweredOff
	}
	switch {
	case c.roll(c.cfg.WriteErr):
		c.stats.WriteErrs++
		obs.ChaosInjection("write_err")
		c.mu.Unlock()
		return 0, fmt.Errorf("iofault: write %s: %w", f.inner.Name(), ErrInjectedIO)
	case c.roll(c.cfg.NoSpace):
		c.stats.NoSpaceErrs++
		obs.ChaosInjection("no_space")
		c.mu.Unlock()
		return 0, fmt.Errorf("iofault: write %s: %w", f.inner.Name(), ErrInjectedNoSpace)
	case c.roll(c.cfg.TornWrite):
		// Persist a strict prefix but report complete success: the
		// caller proceeds to rename a torn file into place.
		c.stats.TornWrites++
		obs.ChaosInjection("torn_write")
		keep := c.intn(len(p))
		c.mu.Unlock()
		f.buf = append(f.buf, p[:keep]...)
		return len(p), nil
	case c.roll(c.cfg.ShortWrite):
		c.stats.ShortWrites++
		obs.ChaosInjection("short_write")
		keep := c.intn(len(p))
		c.mu.Unlock()
		f.buf = append(f.buf, p[:keep]...)
		return keep, shortWriteErr
	}
	c.mu.Unlock()
	f.buf = append(f.buf, p...)
	return len(p), nil
}

// Sync implements File; an fsync-loss fault acknowledges the sync
// without advancing the durability watermark.
func (f *chaosFile) Sync() error {
	c := f.fs
	c.mu.Lock()
	if c.off {
		c.mu.Unlock()
		return ErrPoweredOff
	}
	lost := c.roll(c.cfg.FsyncLoss)
	if lost {
		c.stats.FsyncLosses++
		obs.ChaosInjection("fsync_loss")
	}
	c.mu.Unlock()
	if lost {
		f.lostSync = true
		return nil
	}
	f.durable = len(f.buf)
	return nil
}

// Close materializes the final (post-fault) content into the real file.
func (f *chaosFile) Close() error {
	if f.closed {
		return errors.New("iofault: file already closed")
	}
	f.closed = true
	out := f.buf
	if f.lostSync {
		// The acknowledged-but-lost tail vanishes with the crash.
		out = out[:f.durable]
	}
	c := f.fs
	c.mu.Lock()
	if c.off {
		c.mu.Unlock()
		f.inner.Close()
		return ErrPoweredOff
	}
	if len(out) > 0 && c.roll(c.cfg.BitFlip) {
		c.stats.BitFlips++
		obs.ChaosInjection("bit_flip")
		pos := c.intn(len(out))
		flip := byte(1) << uint(c.intn(8))
		c.mu.Unlock()
		out = append([]byte(nil), out...)
		out[pos] ^= flip
	} else {
		c.mu.Unlock()
	}
	if _, err := f.inner.Write(out); err != nil {
		f.inner.Close()
		return err
	}
	if err := f.inner.Sync(); err != nil {
		f.inner.Close()
		return err
	}
	return f.inner.Close()
}

// Name implements File.
func (f *chaosFile) Name() string { return f.inner.Name() }

// chaosAppendFile is the fault-injecting append handle. Writes land in
// a pending buffer (after write-time faults); an honest Sync flushes
// pending bytes to the real file, syncs it, and fires OnCommit; an
// fsync-loss fault acknowledges the Sync while leaving the bytes
// pending, so they survive only if a later honest Sync (or a clean
// Close) happens before PowerOff.
type chaosAppendFile struct {
	fs      *Chaos
	inner   File
	mu      sync.Mutex
	pending []byte
	closed  bool
}

// Write implements io.Writer with injected write faults on the pending
// tail.
func (f *chaosAppendFile) Write(p []byte) (int, error) {
	c := f.fs
	c.mu.Lock()
	if c.off {
		c.mu.Unlock()
		return 0, ErrPoweredOff
	}
	switch {
	case c.roll(c.cfg.WriteErr):
		c.stats.WriteErrs++
		obs.ChaosInjection("write_err")
		c.mu.Unlock()
		return 0, fmt.Errorf("iofault: append %s: %w", f.inner.Name(), ErrInjectedIO)
	case c.roll(c.cfg.NoSpace):
		c.stats.NoSpaceErrs++
		obs.ChaosInjection("no_space")
		c.mu.Unlock()
		return 0, fmt.Errorf("iofault: append %s: %w", f.inner.Name(), ErrInjectedNoSpace)
	case c.roll(c.cfg.TornWrite):
		c.stats.TornWrites++
		obs.ChaosInjection("torn_write")
		keep := c.intn(len(p))
		c.mu.Unlock()
		f.mu.Lock()
		f.pending = append(f.pending, p[:keep]...)
		f.mu.Unlock()
		return len(p), nil
	case c.roll(c.cfg.ShortWrite):
		c.stats.ShortWrites++
		obs.ChaosInjection("short_write")
		keep := c.intn(len(p))
		c.mu.Unlock()
		f.mu.Lock()
		f.pending = append(f.pending, p[:keep]...)
		f.mu.Unlock()
		return keep, shortWriteErr
	case len(p) > 0 && c.roll(c.cfg.BitFlip):
		// Append logs have no Close-time materialization, so silent
		// media corruption strikes at write time instead.
		c.stats.BitFlips++
		obs.ChaosInjection("bit_flip")
		pos := c.intn(len(p))
		flip := byte(1) << uint(c.intn(8))
		c.mu.Unlock()
		mut := append([]byte(nil), p...)
		mut[pos] ^= flip
		f.mu.Lock()
		f.pending = append(f.pending, mut...)
		f.mu.Unlock()
		return len(p), nil
	}
	c.mu.Unlock()
	f.mu.Lock()
	f.pending = append(f.pending, p...)
	f.mu.Unlock()
	return len(p), nil
}

// Sync implements File. An honest sync is an append log's commit point.
func (f *chaosAppendFile) Sync() error {
	c := f.fs
	c.mu.Lock()
	if c.off {
		c.mu.Unlock()
		return ErrPoweredOff
	}
	if c.roll(c.cfg.FsyncLoss) {
		c.stats.FsyncLosses++
		obs.ChaosInjection("fsync_loss")
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	if err := f.flush(); err != nil {
		return err
	}
	if err := f.inner.Sync(); err != nil {
		return err
	}
	c.commit(f.inner.Name())
	return nil
}

// flush pushes the pending tail into the real file.
func (f *chaosAppendFile) flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.pending) == 0 {
		return nil
	}
	if _, err := f.inner.Write(f.pending); err != nil {
		return err
	}
	f.pending = nil
	return nil
}

// Close implements File. A clean close lands the pending tail (the
// page cache drains when the process exits normally); after PowerOff
// the tail is gone.
func (f *chaosAppendFile) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errors.New("iofault: file already closed")
	}
	f.closed = true
	f.mu.Unlock()
	if f.fs.poweredOff() {
		f.inner.Close()
		return ErrPoweredOff
	}
	if err := f.flush(); err != nil {
		f.inner.Close()
		return err
	}
	return f.inner.Close()
}

// Name implements File.
func (f *chaosAppendFile) Name() string { return f.inner.Name() }
