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
// command under cmd/ and every package directory under internal/. It
// holds DESIGN.md's module table (§3) to the same tree.
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
	checkModuleTable(t, want)
}

// checkModuleTable requires DESIGN.md §3's module table to have a row for
// every command and internal package in want, and every path the table
// names to exist. A row names its path in its first backticked cell; the
// root package's row names the module.
func checkModuleTable(t *testing.T, want map[string]bool) {
	t.Helper()
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(raw), "\n## 3. ")
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		rest, ok := strings.CutPrefix(line, "| `")
		if !ok {
			continue
		}
		path, _, _ := strings.Cut(rest, "`")
		if path == "tivapromi" {
			path = "."
		}
		rows[path] = true
		if _, err := os.Stat(path); err != nil {
			t.Errorf("DESIGN.md §3 has a row for %s, which the tree does not have", path)
		}
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md §3 has no module table")
	}
	for path := range want {
		if (strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/")) && !rows[path] {
			t.Errorf("DESIGN.md §3 has no row for %s", path)
		}
	}
}
