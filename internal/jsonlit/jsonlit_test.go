package jsonlit

import (
	"encoding/json"
	"math"
	"testing"
)

// TestStringAgreesWithEncodingJSON: every literal String accepts,
// encoding/json decodes to the same value, and the length String
// reports ends the literal.
func TestStringAgreesWithEncodingJSON(t *testing.T) {
	for _, lit := range []string{
		`""`, `"plain"`, `"é漢字😀"`, `"a\"b\\c\/d"`, `"\b\f\n\r\t"`,
		`"<&>"`, `"\u2028\u2029"`, `"\u003c\u0026"`, `"\ud83d\ude00"`,
		`"\ud83d"`, `"\ud83dx"`, `"\ude00\ud83d"`, `"\ud83dA"`, "\"\x7f\"",
	} {
		got, n, ok := String([]byte(lit + `,"next"`))
		var want string
		if err := json.Unmarshal([]byte(lit), &want); err != nil {
			t.Fatalf("%s: encoding/json refuses it: %v", lit, err)
		}
		if !ok || string(got) != want || n != len(lit) {
			t.Errorf("String(%s) = %q, %d, %v; want %q, %d", lit, got, n, ok, want, len(lit))
		}
	}
	for _, bad := range []string{
		``, `x`, `"`, `"abc`, `"a\"`, `"\x"`, `"\u12"`, `"\u12g4"`, "\"\x01\"", "\"\n\"",
		"\"\xff\"", "\"a\\n\xc3\"",
	} {
		if _, _, ok := String([]byte(bad)); ok {
			t.Errorf("String(%q) accepted a malformed or non-UTF-8 literal", bad)
		}
	}
}

// TestNumbersAgreeWithEncodingJSON: Uint, Int and Float take a whole
// literal exactly when encoding/json decodes it into the matching Go
// type, and then with the same value. (On "01" they take the literal
// "0"; the caller refuses the "1" that follows.)
func TestNumbersAgreeWithEncodingJSON(t *testing.T) {
	for _, lit := range []string{
		"0", "7", "-0", "-7", "01", "-", "1.", ".5", "1.5", "1e3", "1E+3", "2.5e-3",
		"18446744073709551615", "18446744073709551616", "9223372036854775807",
		"9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"1e400", "-1e-400", "123456789.123456789", "+1", "0x10", "NaN", "Infinity",
	} {
		b := []byte(lit + "}")
		var wu uint64
		errU := json.Unmarshal([]byte(lit), &wu)
		if u, n, ok := Uint(b); (ok && n == len(lit)) != (errU == nil) || errU == nil && u != wu {
			t.Errorf("Uint(%s) = %d, %d, %v; encoding/json %d, %v", lit, u, n, ok, wu, errU)
		}
		var wi int
		errI := json.Unmarshal([]byte(lit), &wi)
		if i, n, ok := Int(b); (ok && n == len(lit)) != (errI == nil) || errI == nil && i != wi {
			t.Errorf("Int(%s) = %d, %d, %v; encoding/json %d, %v", lit, i, n, ok, wi, errI)
		}
		var wf float64
		errF := json.Unmarshal([]byte(lit), &wf)
		f, n, ok := Float(b)
		same := f == wf && math.Signbit(f) == math.Signbit(wf)
		if (ok && n == len(lit)) != (errF == nil) || errF == nil && !same {
			t.Errorf("Float(%s) = %g, %d, %v; encoding/json %g, %v", lit, f, n, ok, wf, errF)
		}
	}
}
