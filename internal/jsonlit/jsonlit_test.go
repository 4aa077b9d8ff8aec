package jsonlit

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
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

// TestAppendAgreesWithEncodingJSON: AppendString and AppendFloat write
// exactly what encoding/json's Encoder writes for the same value.
func TestAppendAgreesWithEncodingJSON(t *testing.T) {
	encode := func(v any) string {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return strings.TrimSuffix(buf.String(), "\n")
	}
	for _, s := range []string{
		"", "plain", "é漢字😀", `a"b\c/d`, "\b\f\n\r\t\x00\x1f\x7f", "<&>", "  ",
		"\xff", "a\xc3", "\xed\xa0\x80", "x\xf0\x9f\x98",
	} {
		if got, want := string(AppendString(nil, s)), encode(s); got != want {
			t.Errorf("AppendString(%q) = %s, encoding/json %s", s, got, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.65, 1.2, 45, 7800, 1e-6, 9.999999e-7, 1e-7, 2.5e-10,
		1e20, 1e21, -1e21, 123456789.125, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3,
	} {
		if got, want := string(AppendFloat(nil, f)), encode(f); got != want {
			t.Errorf("AppendFloat(%v) = %s, encoding/json %s", f, got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := string(AppendFloat(nil, f)); got != strconv.FormatFloat(f, 'f', -1, 64) {
			t.Errorf("AppendFloat(%v) = %s, want strconv's spelling", f, got)
		}
	}
}
