package jsonscan

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestNumbersMatchEncodingJSON holds Int and Float to encoding/json over
// hand-picked edge cases and random literals around the exact fast
// path's limits (15 significant digits, powers of ten up to 22): a reader
// that accepts a literal must return the value encoding/json decodes, and
// a literal encoding/json rejects must not be accepted.
func TestNumbersMatchEncodingJSON(t *testing.T) {
	lits := []string{
		"0", "-0", "1", "-1", "07", "-", "1.", ".5", "1e", "1e+", "+1", "0x10",
		"1.0", "1e2", "1E-2", "-0.0", "0.000", "123456789012345", "1234567890123456",
		"9007199254740993", "0.1", "0.30000000000000004", "1e22", "1e23", "1e-22",
		"1.7976931348623157e308", "1.8e308", "1e400", "4.9e-324", "1e-400",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "99999999999999999999", "00", "-01",
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		mant := strconv.FormatUint(rng.Uint64()>>uint(rng.Intn(64)), 10)
		if k := rng.Intn(len(mant) + 1); k < len(mant) && rng.Intn(2) == 0 {
			mant = mant[:k] + "." + mant[k:]
			if mant[0] == '.' {
				mant = "0" + mant
			}
		}
		lit := mant
		if rng.Intn(2) == 0 {
			lit += "e" + strconv.Itoa(rng.Intn(60)-30)
		}
		if rng.Intn(2) == 0 {
			lit = "-" + lit
		}
		lits = append(lits, lit)
	}
	for _, lit := range lits {
		var wantF float64
		errF := json.Unmarshal([]byte(lit), &wantF)
		s := Scanner{Data: []byte(lit)}
		got, ok := s.Float()
		ok = ok && s.AtEnd()
		if ok && (errF != nil || math.Float64bits(got) != math.Float64bits(wantF)) {
			t.Errorf("Float(%s) = %v, encoding/json: %v, %v", lit, got, wantF, errF)
		}
		if !ok && errF == nil {
			t.Errorf("Float(%s) rejected a literal encoding/json reads as %v", lit, wantF)
		}

		var wantI int64
		errI := json.Unmarshal([]byte(lit), &wantI)
		s = Scanner{Data: []byte(lit)}
		gotI, ok := s.Int()
		ok = ok && s.AtEnd()
		if ok && (errI != nil || gotI != wantI) {
			t.Errorf("Int(%s) = %d, encoding/json: %d, %v", lit, gotI, wantI, errI)
		}
		if !ok && errI == nil {
			t.Errorf("Int(%s) rejected a literal encoding/json reads as %d", lit, wantI)
		}
	}
}

// TestFoldsToAny pins encoding/json's ASCII key folding: letters fold,
// nothing else does.
func TestFoldsToAny(t *testing.T) {
	names := []string{"timeout_ms", "graph"}
	for key, want := range map[string]bool{
		"timeout_ms": true, "TIMEOUT_MS": true, "Timeout_Ms": true, "GRAPH": true,
		"timeout-ms": false, "timeout_m": false, "graphs": false, "gr@ph": false,
		"timeout\x7fms": false,
	} {
		if got := FoldsToAny([]byte(key), names); got != want {
			t.Errorf("FoldsToAny(%q) = %v, want %v", key, got, want)
		}
	}
}
