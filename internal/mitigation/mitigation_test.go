package mitigation

import (
	"strings"
	"testing"
)

func TestCommandKindString(t *testing.T) {
	cases := map[CommandKind]string{
		ActN:            "act_n",
		ActNOne:         "act_n_one",
		RefreshRow:      "refresh_row",
		CommandKind(42): "CommandKind(42)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestRegistryLifecycle(t *testing.T) {
	fake := func(Target, uint64) Mitigator { return nil }
	size := func(t Target) int { return t.RowsPerBank }
	Register("test-technique", fake, size)
	if _, err := Lookup("test-technique"); err != nil {
		t.Fatal(err)
	}
	if b, err := TableBytes("test-technique", Target{RowsPerBank: 7}); err != nil || b != 7 {
		t.Fatalf("TableBytes = %d, %v; want the registered sizer's 7", b, err)
	}
	found := false
	for _, n := range Names() {
		if n == "test-technique" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered name missing from Names()")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("test-technique", fake, size)
}

func TestLookupUnknownListsKnown(t *testing.T) {
	_, err := Lookup("definitely-not-registered")
	if err == nil {
		t.Fatal("unknown lookup succeeded")
	}
	if !strings.Contains(err.Error(), "known:") {
		t.Fatalf("error does not list known techniques: %v", err)
	}
	if _, err := TableBytes("definitely-not-registered", Target{}); err == nil {
		t.Fatal("unknown technique sized")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}
