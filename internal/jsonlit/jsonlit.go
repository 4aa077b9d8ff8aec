// Package jsonlit scans one JSON literal at the front of a byte slice:
// a string, decoded exactly as encoding/json decodes it, or a number.
// It uses no reflection and allocates only to unescape a string. It is
// the lexer under the record log's strict line scan and the
// checkpoint's sweep-payload decoder, which read the exact layouts
// encoding/json writes. AppendString and AppendFloat go the other way:
// they write string and float64 literals byte for byte as
// encoding/json's Encoder does, for the checkpoint key encoder.
package jsonlit

import (
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// String decodes the JSON string literal at the front of b. It returns
// the value and the literal's length in bytes; ok is false when b does
// not start with a well-formed literal. A literal without escapes
// yields a value aliasing b; only one with escapes allocates. Raw
// control characters and invalid UTF-8 are refused, because
// encoding/json never writes them.
func String(b []byte) (val []byte, n int, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, 0, false
	}
	i := 1
	for ; i < len(b) && b[i] != '\\'; i++ {
		switch c := b[i]; {
		case c == '"':
			return b[1:i], i + 1, utf8.Valid(b[1:i])
		case c < 0x20:
			return nil, 0, false
		}
	}
	out := append([]byte(nil), b[1:i]...)
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			// Escapes are ASCII, so the raw literal is valid UTF-8
			// exactly when its unescaped runs are.
			return out, i + 1, utf8.Valid(b[1:i])
		case c < 0x20:
			return nil, 0, false
		case c != '\\':
			out = append(out, c)
			i++
			continue
		}
		if i+1 >= len(b) {
			return nil, 0, false
		}
		switch e := b[i+1]; e {
		case '"', '\\', '/':
			out = append(out, e)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r := u4(b[i:])
			if r < 0 {
				return nil, 0, false
			}
			i += 6
			// A surrogate pairs with a following \u escape, else it
			// decodes to U+FFFD and the next escape stands alone, as in
			// encoding/json.
			if utf16.IsSurrogate(r) {
				if d := utf16.DecodeRune(r, u4(b[i:])); d != unicode.ReplacementChar {
					r = d
					i += 6
				} else {
					r = unicode.ReplacementChar
				}
			}
			out = utf8.AppendRune(out, r)
			continue
		default:
			return nil, 0, false
		}
		i += 2
	}
	return nil, 0, false
}

// u4 decodes the \uXXXX escape at the front of b, or returns -1.
func u4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number returns the length of the JSON number literal at the front of
// b, or 0 when b does not start with one.
func number(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0
		}
		i = j
	}
	return i
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// Uint parses the JSON number at the front of b as a uint64, which
// encoding/json accepts only when it is a plain run of digits that
// fits. It returns the value and the literal's length.
func Uint(b []byte) (v uint64, n int, ok bool) {
	n = number(b)
	if n == 0 || b[0] == '-' {
		return 0, 0, false
	}
	for _, c := range b[:n] {
		d := uint64(c - '0')
		if d > 9 || v > (math.MaxUint64-d)/10 {
			return 0, 0, false
		}
		v = v*10 + d
	}
	return v, n, true
}

// Int parses the JSON number at the front of b as an int: an optional
// minus sign and a run of digits that fits.
func Int(b []byte) (v int, n int, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	u, n, ok := Uint(b)
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	switch {
	case !ok || u > limit:
		return 0, 0, false
	case neg:
		return int(-int64(u)), n + 1, true
	}
	return int(u), n, true
}

// Float parses the JSON number at the front of b as a float64 with the
// same strconv call encoding/json makes, so both yield the same value
// and both refuse an out-of-range literal.
func Float(b []byte) (v float64, n int, ok bool) {
	n = number(b)
	if n == 0 {
		return 0, 0, false
	}
	v, err := strconv.ParseFloat(string(b[:n]), 64)
	return v, n, err == nil
}

// AppendString appends s as a JSON string literal, exactly as
// encoding/json's Encoder writes it with its default HTML escaping:
// '"' and '\\' escaped, \b \f \n \r \t short forms, other control
// bytes and '<', '>', '&' as \u00XX, U+2028 and U+2029 as \u202X, and
// each invalid UTF-8 byte as \ufffd.
func AppendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form (with a one-digit negative
// exponent unpadded) below 1e-6 and from 1e21 on, and -0 as "-0".
// encoding/json refuses NaN and the infinities; AppendFloat writes
// strconv's "NaN", "+Inf" and "-Inf" for them, which no JSON number
// equals.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
