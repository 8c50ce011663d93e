// Package jsonscan is an allocation-free JSON lexer for the narrow subset
// of JSON that a plain encoding/json client emits for a known schema:
// exact object keys with no escapes, printable-ASCII strings with no
// escapes, strict JSON numbers, and no null members.
//
// It is a fast path, not a decoder. Every reader reports ok=false on
// anything outside that subset — malformed input as well as valid JSON it
// does not cover (escapes, non-ASCII text, floats in an integer field,
// out-of-range numbers, null) — and the caller then decodes the same
// bytes with encoding/json, which stays the single reference for what is
// accepted, what the values are and what an error says. A reader that
// reports ok=true has consumed a value encoding/json reads identically.
package jsonscan

import (
	"math"
	"strconv"
	"unsafe"
)

// Scanner walks one byte slice. Pos is the offset of the next unread
// byte; readers skip leading whitespace themselves.
type Scanner struct {
	Data []byte
	Pos  int
}

// maxSkipDepth bounds the nesting Skip descends before giving up (and
// leaving the input to encoding/json, whose own limit is 10000).
const maxSkipDepth = 64

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// skipSpace advances past JSON whitespace.
func (s *Scanner) skipSpace() {
	for s.Pos < len(s.Data) && isSpace(s.Data[s.Pos]) {
		s.Pos++
	}
}

// peek skips whitespace and returns the next byte without consuming it,
// or 0 at the end of the data.
func (s *Scanner) peek() byte {
	s.skipSpace()
	if s.Pos < len(s.Data) {
		return s.Data[s.Pos]
	}
	return 0
}

// Consume skips whitespace and consumes c, reporting whether it was next.
func (s *Scanner) Consume(c byte) bool {
	if s.peek() != c {
		return false
	}
	s.Pos++
	return true
}

// AtEnd reports whether only whitespace remains.
func (s *Scanner) AtEnd() bool {
	s.skipSpace()
	return s.Pos == len(s.Data)
}

// Next advances to the next member of an object or element of an array
// whose opening bracket has been consumed: it consumes the ',' before
// every member but the first, or the closing bracket. more reports
// whether a member follows; ok is false on any other byte.
//
//	for first := true; ; first = false {
//		more, ok := s.Next('}', first)
//		if !ok { return false }
//		if !more { break }
//		key, ok := s.Key()
//		...
//	}
func (s *Scanner) Next(close byte, first bool) (more, ok bool) {
	c := s.peek()
	if c == close {
		s.Pos++
		return false, true
	}
	if first {
		return true, c != 0
	}
	if c != ',' {
		return false, false
	}
	s.Pos++
	return true, true
}

// Key reads an object key and the ':' after it. The returned slice
// aliases the input.
func (s *Scanner) Key() ([]byte, bool) {
	k, ok := s.String()
	if !ok || !s.Consume(':') {
		return nil, false
	}
	return k, true
}

// String reads a string made only of printable ASCII with no escapes and
// returns its contents, aliasing the input. Such a string decodes to
// exactly its bytes.
func (s *Scanner) String() ([]byte, bool) {
	if !s.Consume('"') {
		return nil, false
	}
	start := s.Pos
	for i := start; i < len(s.Data); i++ {
		c := s.Data[i]
		if c == '"' {
			s.Pos = i + 1
			return s.Data[start:i], true
		}
		if c < 0x20 || c > 0x7E || c == '\\' {
			return nil, false
		}
	}
	return nil, false
}

// Bool reads true or false.
func (s *Scanner) Bool() (v, ok bool) {
	switch s.peek() {
	case 't':
		return true, s.literal("true")
	case 'f':
		return false, s.literal("false")
	}
	return false, false
}

func (s *Scanner) literal(lit string) bool {
	if len(s.Data)-s.Pos < len(lit) || string(s.Data[s.Pos:s.Pos+len(lit)]) != lit {
		return false
	}
	s.Pos += len(lit)
	return true
}

// Int reads an integer literal that fits an int64, which is what
// encoding/json accepts into an int field on a 64-bit platform. A
// fraction or exponent after the digits is left unread, so the caller's
// next structural read fails on it.
func (s *Scanner) Int() (int64, bool) {
	s.skipSpace()
	i := s.Pos
	neg := i < len(s.Data) && s.Data[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(s.Data) && s.Data[i] >= '0' && s.Data[i] <= '9'; i++ {
		u = u*10 + uint64(s.Data[i]-'0')
	}
	digits := i - start
	switch {
	case digits == 0, digits > 19,
		digits > 1 && s.Data[start] == '0':
		return 0, false
	}
	// 19 digits fit a uint64 without wrapping; the int64 range check is
	// all that is left.
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		s.Pos = i
		return -int64(u), true
	}
	if u > math.MaxInt64 {
		return 0, false
	}
	s.Pos = i
	return int64(u), true
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// Float reads a JSON number as a float64, rounding exactly as
// strconv.ParseFloat does (so as encoding/json does). Numbers out of the
// float64 range report ok=false.
func (s *Scanner) Float() (float64, bool) {
	s.skipSpace()
	start := s.Pos
	i := start
	neg := i < len(s.Data) && s.Data[i] == '-'
	if neg {
		i++
	}
	// Mantissa digits with the decimal point dropped, and the count of
	// significant ones (leading zeros do not count).
	var mant uint64
	sig := 0
	intStart := i
	for ; i < len(s.Data) && s.Data[i] >= '0' && s.Data[i] <= '9'; i++ {
		if d := s.Data[i] - '0'; sig > 0 || d != 0 {
			mant = mant*10 + uint64(d)
			sig++
		}
	}
	if n := i - intStart; n == 0 || n > 1 && s.Data[intStart] == '0' {
		return 0, false
	}
	exp := 0
	if i < len(s.Data) && s.Data[i] == '.' {
		i++
		fracStart := i
		for ; i < len(s.Data) && s.Data[i] >= '0' && s.Data[i] <= '9'; i++ {
			if d := s.Data[i] - '0'; sig > 0 || d != 0 {
				mant = mant*10 + uint64(d)
				sig++
			}
			exp--
		}
		if i == fracStart {
			return 0, false
		}
	}
	if i < len(s.Data) && (s.Data[i] == 'e' || s.Data[i] == 'E') {
		i++
		eneg := false
		if i < len(s.Data) && (s.Data[i] == '+' || s.Data[i] == '-') {
			eneg = s.Data[i] == '-'
			i++
		}
		expStart := i
		e := 0
		for ; i < len(s.Data) && s.Data[i] >= '0' && s.Data[i] <= '9'; i++ {
			if e < 10000 {
				e = e*10 + int(s.Data[i]-'0')
			}
		}
		if i == expStart {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	s.Pos = i
	// Exact fast path: a mantissa of at most 15 significant digits and a
	// power of ten both convert to float64 exactly, so one IEEE multiply
	// or divide rounds the true decimal value correctly.
	if sig <= 15 && exp >= -22 && exp <= 22 {
		f := float64(mant)
		if exp < 0 {
			f /= pow10[-exp]
		} else {
			f *= pow10[exp]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	lit := s.Data[start:i]
	f, err := strconv.ParseFloat(unsafe.String(unsafe.SliceData(lit), len(lit)), 64)
	if err != nil {
		s.Pos = start
		return 0, false
	}
	return f, true
}

// Skip consumes one complete JSON value of any kind, validating it as
// encoding/json's scanner would; strings may hold escapes and any bytes
// but control characters.
func (s *Scanner) Skip() bool { return s.skip(0) }

func (s *Scanner) skip(depth int) bool {
	switch c := s.peek(); {
	case c == '{' || c == '[':
		if depth == maxSkipDepth {
			return false
		}
		s.Pos++
		close := byte(']')
		if c == '{' {
			close = '}'
		}
		for first := true; ; first = false {
			more, ok := s.Next(close, first)
			if !ok {
				return false
			}
			if !more {
				return true
			}
			if c == '{' && !(s.skipString() && s.Consume(':')) {
				return false
			}
			if !s.skip(depth + 1) {
				return false
			}
		}
	case c == '"':
		return s.skipString()
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '-' || c >= '0' && c <= '9':
		_, ok := s.Float()
		if !ok {
			// Out-of-range numbers are still valid JSON to skip, but
			// rare enough to leave to encoding/json.
			return false
		}
		return true
	}
	return false
}

// skipString consumes a string literal with any valid escapes.
func (s *Scanner) skipString() bool {
	if !s.Consume('"') {
		return false
	}
	for i := s.Pos; i < len(s.Data); i++ {
		switch c := s.Data[i]; {
		case c == '"':
			s.Pos = i + 1
			return true
		case c < 0x20:
			return false
		case c == '\\':
			i++
			if i >= len(s.Data) {
				return false
			}
			switch s.Data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(s.Data) {
					return false
				}
				for _, h := range s.Data[i+1 : i+5] {
					if !(h >= '0' && h <= '9' || h >= 'a' && h <= 'f' || h >= 'A' && h <= 'F') {
						return false
					}
				}
				i += 4
			default:
				return false
			}
		}
	}
	return false
}

// FoldsToAny reports whether key would match one of names under
// encoding/json's case-insensitive key matching. Keys reaching it came
// from String, so they are ASCII, where that matching folds letters only.
func FoldsToAny(key []byte, names []string) bool {
	for _, name := range names {
		if foldsTo(key, name) {
			return true
		}
	}
	return false
}

func foldsTo(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i, c := range key {
		if lc := c | 0x20; c != name[i] && (lc < 'a' || lc > 'z' || lc != name[i]|0x20) {
			return false
		}
	}
	return true
}
