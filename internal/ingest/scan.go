package ingest

import (
	"reflect"
	"strings"

	"repro/internal/jsonscan"
)

// The wire keys the scanner knows, taken from the encoding/json decode
// forms' tags so the two paths share one schema. A key that folds to one
// of them without matching it exactly is left to encoding/json.
// envelopeKeys is in rawRequest's field order, which is the order of
// scanField's field indices; commKeys is in CommOverride's field order,
// which scanComm follows.
var (
	envelopeKeys = jsonNames(reflect.TypeFor[rawRequest]())
	commKeys     = jsonNames(reflect.TypeFor[CommOverride]())
	batchKeys    = jsonNames(reflect.TypeFor[rawBatch]())
)

// jsonNames returns the json key of each field of struct type t.
func jsonNames(t reflect.Type) []string {
	names := make([]string, t.NumField())
	for i := range names {
		names[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return names
}

// scan decodes one envelope object at s's position into r (reset). It
// reports false for anything outside the scanner's subset; bytes after
// the envelope's closing brace are never read, as a json.Decoder reads
// only the first value.
func (r *Request) scan(s *jsonscan.Scanner) bool {
	if !s.Consume('{') {
		return false
	}
	var seen uint32
	for first := true; ; first = false {
		more, ok := s.Next('}', first)
		if !ok {
			return false
		}
		if !more {
			return true
		}
		key, ok := s.Key()
		if !ok {
			return false
		}
		f, ok := r.scanField(s, key)
		if f < 0 {
			if jsonscan.FoldsToAny(key, envelopeKeys) || !s.Skip() {
				return false
			}
			continue
		}
		if !ok || seen&(1<<f) != 0 {
			return false // a duplicate key: encoding/json keeps the last
		}
		seen |= 1 << f
	}
}

// scanField decodes the value of the envelope field named key and
// returns the field's index in envelopeKeys, or -1 (reading nothing)
// when key names no field.
func (r *Request) scanField(s *jsonscan.Scanner, key []byte) (f int, ok bool) {
	var n int64
	var b []byte
	switch string(key) {
	case "graph":
		f, ok = 0, r.Graph.Scan(s)
		r.graph = graphScanned
	case "topo":
		f = 1
		b, ok = s.String()
		r.Topo = string(b)
	case "comm":
		f, ok = 2, r.scanComm(s)
	case "nocomm":
		f = 3
		r.NoComm, ok = s.Bool()
	case "solver":
		f = 4
		b, ok = s.String()
		r.Solver = string(b)
	case "seed":
		f = 5
		r.Seed, ok = s.Int()
	case "wb":
		f = 6
		r.wb, ok = s.Float()
		r.Wb = &r.wb
	case "restarts":
		f = 7
		n, ok = s.Int()
		r.Restarts = int(n)
	case "cooperative":
		f = 8
		r.Cooperative, ok = s.Bool()
	case "tempering":
		f = 9
		r.Tempering, ok = s.Bool()
	case "timeout_ms":
		f = 10
		n, ok = s.Int()
		r.TimeoutMS = int(n)
	case "member_timeout_ms":
		f = 11
		n, ok = s.Int()
		r.MemberTimeoutMS = int(n)
	case "lane":
		f = 12
		b, ok = s.String()
		r.Lane = string(b)
	case "nocache":
		f = 13
		r.NoCache, ok = s.Bool()
	case "trace":
		f = 14
		r.Trace, ok = s.Bool()
	default:
		return -1, false
	}
	return f, ok
}

// scanComm decodes the "comm" object into r's own CommOverride.
func (r *Request) scanComm(s *jsonscan.Scanner) bool {
	if !s.Consume('{') {
		return false
	}
	r.Comm = &r.comm
	var seen uint8
	for first := true; ; first = false {
		more, ok := s.Next('}', first)
		if !ok {
			return false
		}
		if !more {
			return true
		}
		key, ok := s.Key()
		if !ok {
			return false
		}
		f := -1
		for i, k := range commKeys {
			if string(key) == k {
				f = i
				break
			}
		}
		if f < 0 {
			if jsonscan.FoldsToAny(key, commKeys) || !s.Skip() {
				return false
			}
			continue
		}
		if seen&(1<<f) != 0 {
			return false
		}
		seen |= 1 << f
		if r.commVals[f], ok = s.Float(); !ok {
			return false
		}
		p := &r.commVals[f]
		switch f {
		case 0:
			r.comm.Bandwidth = p
		case 1:
			r.comm.Sigma = p
		case 2:
			r.comm.Tau = p
		case 3:
			r.comm.Scale = p
		}
	}
}

// scanBatch decodes a batch object at s's position, each member into the
// Request next returns, and returns the member count. With headOnly it
// stops after the first member and reads no further.
func scanBatch(s *jsonscan.Scanner, next func() *Request, headOnly bool) (int, bool) {
	if !s.Consume('{') {
		return 0, false
	}
	n := 0
	seen := false
	for first := true; ; first = false {
		more, ok := s.Next('}', first)
		if !ok {
			return 0, false
		}
		if !more {
			return n, true
		}
		key, ok := s.Key()
		if !ok {
			return 0, false
		}
		if string(key) != "requests" {
			if jsonscan.FoldsToAny(key, batchKeys) || !s.Skip() {
				return 0, false
			}
			continue
		}
		if seen || !s.Consume('[') {
			return 0, false
		}
		seen = true
		for first := true; ; first = false {
			more, ok := s.Next(']', first)
			if !ok {
				return 0, false
			}
			if !more {
				break
			}
			m := next()
			m.reset()
			if !m.scan(s) {
				return 0, false
			}
			n++
			if headOnly {
				return n, true
			}
		}
	}
}
