package iofault

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeOnce pushes one payload through fs's temp-write-then-rename
// protocol and returns what landed at dst.
func writeOnce(t *testing.T, fs FS, dir, dst string, payload []byte, sync bool) ([]byte, error) {
	t.Helper()
	f, err := fs.CreateTemp(dir, "t-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return nil, err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := fs.Rename(f.Name(), dst); err != nil {
		return nil, err
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	return got, nil
}

func TestOSPassthroughRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "out")
	got, err := writeOnce(t, OS{}, dir, dst, []byte("hello"), true)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("passthrough wrote %q", got)
	}
}

func TestChaosZeroConfigInjectsNothing(t *testing.T) {
	dir := t.TempDir()
	c := NewChaos(nil, ChaosConfig{Seed: 1})
	got, err := writeOnce(t, c, dir, filepath.Join(dir, "out"), []byte("payload"), true)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("zero-config chaos altered bytes: %q", got)
	}
	st := c.Stats()
	if st.Total() != 0 || st.Commits != 1 {
		t.Fatalf("stats = %+v, want clean with 1 commit", st)
	}
}

func TestChaosDeterministicInSeed(t *testing.T) {
	run := func(seed uint64) (ChaosStats, []string) {
		dir := t.TempDir()
		c := NewChaos(nil, ChaosConfig{
			Seed: seed, TornWrite: 0.2, ShortWrite: 0.2, WriteErr: 0.1,
			NoSpace: 0.1, RenameFail: 0.2, FsyncLoss: 0.1, BitFlip: 0.1,
		})
		var outcomes []string
		for i := 0; i < 40; i++ {
			dst := filepath.Join(dir, "out")
			got, err := writeOnce(t, c, dir, dst, []byte("0123456789abcdef"), true)
			// Error strings embed randomized temp paths, so classify
			// by type rather than comparing raw messages.
			switch {
			case errors.Is(err, ErrInjectedNoSpace):
				outcomes = append(outcomes, "nospace")
			case errors.Is(err, ErrInjectedIO):
				outcomes = append(outcomes, "io")
			case err != nil:
				outcomes = append(outcomes, "err")
			default:
				outcomes = append(outcomes, "ok:"+string(got))
			}
			os.Remove(dst)
		}
		return c.Stats(), outcomes
	}
	s1, o1 := run(99)
	s2, o2 := run(99)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(o1, o2) {
		t.Fatalf("same seed diverged:\n%+v vs %+v", s1, s2)
	}
	if s1.Total() == 0 {
		t.Fatal("aggressive fault config injected nothing in 40 writes")
	}
	s3, o3 := run(100)
	if reflect.DeepEqual(s1, s3) && reflect.DeepEqual(o1, o3) {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestChaosTornWriteReportsSuccessPersistsPrefix(t *testing.T) {
	dir := t.TempDir()
	c := NewChaos(nil, ChaosConfig{Seed: 3, TornWrite: 1})
	payload := []byte("full-payload-bytes")
	got, err := writeOnce(t, c, dir, filepath.Join(dir, "out"), payload, true)
	if err != nil {
		t.Fatalf("a torn write must report success, got %v", err)
	}
	if len(got) >= len(payload) {
		t.Fatalf("torn write persisted %d bytes of %d", len(got), len(payload))
	}
	if string(got) != string(payload[:len(got)]) {
		t.Fatalf("torn write persisted non-prefix %q", got)
	}
	if c.Stats().TornWrites == 0 {
		t.Fatal("torn write not counted")
	}
}

func TestChaosFsyncLossDropsUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	c := NewChaos(nil, ChaosConfig{Seed: 5, FsyncLoss: 1})
	// Sync is acknowledged but lies; the whole buffer is the unsynced
	// tail, so the persisted file is empty.
	got, err := writeOnce(t, c, dir, filepath.Join(dir, "out"), []byte("doomed"), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("acknowledged-but-lost fsync persisted %q", got)
	}
	if c.Stats().FsyncLosses == 0 {
		t.Fatal("fsync loss not counted")
	}
}

func TestChaosWriteErrorsAreTyped(t *testing.T) {
	dir := t.TempDir()
	c := NewChaos(nil, ChaosConfig{Seed: 7, WriteErr: 1})
	_, err := writeOnce(t, c, dir, filepath.Join(dir, "out"), []byte("x"), false)
	if !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("err = %v, want ErrInjectedIO", err)
	}
	c2 := NewChaos(nil, ChaosConfig{Seed: 7, NoSpace: 1})
	_, err = writeOnce(t, c2, dir, filepath.Join(dir, "out2"), []byte("x"), false)
	if !errors.Is(err, ErrInjectedNoSpace) {
		t.Fatalf("err = %v, want ErrInjectedNoSpace", err)
	}
}

func TestChaosRenameFailLeavesTargetUntouched(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "out")
	if err := os.WriteFile(dst, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewChaos(nil, ChaosConfig{Seed: 11, RenameFail: 1})
	_, err := writeOnce(t, c, dir, dst, []byte("next"), true)
	if !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("err = %v, want injected rename failure", err)
	}
	got, err := os.ReadFile(dst)
	if err != nil || string(got) != "previous" {
		t.Fatalf("failed rename disturbed the target: %q, %v", got, err)
	}
}

func TestChaosBitFlipCorruptsExactlyOneBit(t *testing.T) {
	dir := t.TempDir()
	c := NewChaos(nil, ChaosConfig{Seed: 13, BitFlip: 1})
	payload := []byte("0123456789abcdef")
	got, err := writeOnce(t, c, dir, filepath.Join(dir, "out"), payload, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("bit flip changed length: %d vs %d", len(got), len(payload))
	}
	diffBits := 0
	for i := range got {
		x := got[i] ^ payload[i]
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("bit flip changed %d bits, want exactly 1", diffBits)
	}
}

// TestChaosOnCommitOrdinalsAndKillHook: renames and honest append syncs
// are both durability points and share one commit ordinal; a lying
// sync is not a commit.
func TestChaosOnCommitOrdinalsAndKillHook(t *testing.T) {
	dir := t.TempDir()
	c := NewChaos(nil, ChaosConfig{Seed: 17})
	var commits []int
	var paths []string
	c.OnCommit = func(path string, n int) {
		commits = append(commits, n)
		paths = append(paths, filepath.Base(path))
	}
	for i := 0; i < 2; i++ {
		if _, err := writeOnce(t, c, dir, filepath.Join(dir, "out"), []byte("x"), true); err != nil {
			t.Fatal(err)
		}
	}
	f, err := c.OpenAppend(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.Write([]byte("rec\n")); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := writeOnce(t, c, dir, filepath.Join(dir, "out"), []byte("x"), true); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(commits, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("commit ordinals = %v", commits)
	}
	if want := []string{"out", "out", "log", "log", "out"}; !reflect.DeepEqual(paths, want) {
		t.Fatalf("commit paths = %v, want %v", paths, want)
	}
	if c.Stats().Commits != 5 {
		t.Fatalf("commit count = %d", c.Stats().Commits)
	}

	// Every sync lies: appends are acknowledged but nothing commits.
	liar := NewChaos(nil, ChaosConfig{Seed: 17, FsyncLoss: 1})
	liar.OnCommit = func(string, int) { t.Fatal("a lost fsync fired the commit hook") }
	g, err := liar.OpenAppend(filepath.Join(dir, "lost"))
	if err != nil {
		t.Fatal(err)
	}
	g.Write([]byte("rec\n"))
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	if liar.Stats().Commits != 0 {
		t.Fatalf("lost fsync counted as a commit: %+v", liar.Stats())
	}
}

func TestChaosDoubleCloseRejected(t *testing.T) {
	dir := t.TempDir()
	c := NewChaos(nil, ChaosConfig{Seed: 19})
	f, err := c.CreateTemp(dir, "t-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err == nil {
		t.Fatal("double close accepted")
	}
}
