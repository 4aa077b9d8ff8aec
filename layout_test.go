package tivapromi

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadmeLayoutMatchesTree keeps README's Layout block honest: every
// path it lists exists, and it lists every top-level directory, every
// command under cmd/ and every package directory under internal/.
//
// An entry line starts with its path column (comma-separated names ended
// by a double space); an entry indented two spaces under a directory
// entry lies inside that directory, and lines indented further continue
// a description.
func TestReadmeLayoutMatchesTree(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, _ := strings.Cut(string(raw), "\n## Layout\n\n```\n")
	block, _, _ = strings.Cut(block, "```")
	if block == "" {
		t.Fatal("README.md has no Layout block")
	}
	listed := map[string]bool{}
	var dirs []string // dirs[d] is the directory entry open at depth d
	for _, line := range strings.Split(block, "\n") {
		entry := strings.TrimLeft(line, " ")
		depth := (len(line) - len(entry)) / 2
		if entry == "" || depth > len(dirs) {
			continue
		}
		dirs = dirs[:depth]
		col, _, _ := strings.Cut(entry, "  ")
		names := strings.Split(col, ", ")
		for _, name := range names {
			path := strings.Join(append(dirs[:depth:depth], strings.TrimSuffix(name, "/")), "/")
			listed[path] = true
			if info, err := os.Stat(path); err != nil || info.IsDir() != strings.HasSuffix(name, "/") {
				t.Errorf("README Layout lists %s as %q, which the tree does not have", path, name)
			}
			if len(names) == 1 && strings.HasSuffix(name, "/") {
				dirs = append(dirs, path)
			}
		}
	}

	want := map[string]bool{}
	for _, parent := range []string{".", "cmd"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
				want[filepath.ToSlash(filepath.Join(parent, e.Name()))] = true
			}
		}
	}
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".go") {
			want[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range want {
		if !listed[path] {
			t.Errorf("README Layout does not list %s/", path)
		}
	}
}
