package taskgraph

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/jsonscan"
)

// Canonicalizer fuses request decoding with canonicalization: one Parse
// pass over a graph's wire JSON yields the canonical form (tasks
// ID-sorted, edges (from,to)-sorted with duplicates merged), the
// structural fingerprint, and — only if the caller still needs one — the
// materialized *Graph. The served warm path uses it to compute a cache
// key without Graph.CanonicalJSON's decode-then-re-marshal round trip:
// AppendCanonicalJSON emits bytes that are guaranteed byte-identical to
// CanonicalJSON of the decoded graph, and Fingerprint matches
// Graph.Fingerprint, so keys derived from either path are interchangeable.
//
// Decoding is a hand-written scan (internal/jsonscan) over the wire
// schema for the documents a plain encoding/json client sends; anything
// else — escapes, non-ASCII text, case-variant or duplicate keys, null
// members — is decoded by encoding/json instead, so accept/reject
// decisions, values and error text are encoding/json's either way.
//
// A Canonicalizer is reusable: Parse resets all state, and steady-state
// reuse (e.g. from a sync.Pool) of the scanned path allocates nothing.
// It is not safe for concurrent use.
type Canonicalizer struct {
	name  span        // graph name, in strs
	tasks []canonTask // input order while decoding, ID-sorted after Canonicalize
	edges []jsonEdge  // input order
	canon []jsonEdge  // (from,to)-sorted, duplicates merged
	strs  []byte      // name bytes, as decoded
	fp    uint64
	sk    Sketch
	skOK  bool // sk is computed
}

// canonTask is a decoded task whose name lives in the canonicalizer's
// string arena, so decoding creates no strings.
type canonTask struct {
	ID   int
	Load float64
	Name span
}

// span is a [lo, hi) range of Canonicalizer.strs.
type span struct{ lo, hi int32 }

func (c *Canonicalizer) str(sp span) []byte { return c.strs[sp.lo:sp.hi] }

func (c *Canonicalizer) addStr(b []byte) span {
	lo := int32(len(c.strs))
	c.strs = append(c.strs, b...)
	return span{lo, int32(len(c.strs))}
}

func (c *Canonicalizer) reset() {
	c.name = span{}
	c.tasks = c.tasks[:0]
	c.edges = c.edges[:0]
	c.canon = c.canon[:0]
	c.strs = c.strs[:0]
	c.fp = 0
	c.skOK = false
}

// Parse decodes and validates one graph document, leaving the canonical
// form ready for AppendCanonicalJSON/Fingerprint/Graph. It applies the
// exact validation sequence of Graph.UnmarshalJSON — decode, dense task
// IDs, then per-edge endpoint/self-loop/volume checks in input order —
// and returns errors with identical messages, so callers that previously
// decoded into a *Graph surface unchanged errors to their clients.
// Acyclicity is the one check deferred to Graph: the canonical bytes and
// fingerprint are well-defined for cyclic inputs, and the served cache
// path only materializes a Graph on a miss.
func (c *Canonicalizer) Parse(data []byte) error {
	s := jsonscan.Scanner{Data: data}
	if c.Scan(&s) && s.AtEnd() {
		return c.Canonicalize()
	}
	c.reset()
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		// Match json.Unmarshal into a *Graph exactly: its validity
		// pre-scan reports syntax errors bare, before Graph.UnmarshalJSON
		// (whose "taskgraph: decode:" wrapper applies to everything else)
		// ever runs.
		var syn *json.SyntaxError
		if errors.As(err, &syn) {
			return err
		}
		return fmt.Errorf("taskgraph: decode: %w", err)
	}
	c.name = c.addStr([]byte(jg.Name))
	for _, t := range jg.Tasks {
		c.tasks = append(c.tasks, canonTask{ID: t.ID, Load: t.Load, Name: c.addStr([]byte(t.Name))})
	}
	c.edges = append(c.edges, jg.Edges...)
	return c.Canonicalize()
}

// Graph document keys, for the scanner's case-fold check: a key that is
// not one of these exactly but folds to one is left to encoding/json.
var (
	graphKeys = []string{"name", "tasks", "edges"}
	taskKeys  = []string{"id", "name", "load"}
	edgeKeys  = []string{"from", "to", "bits"}
)

// Scan resets c and decodes the graph object at s's position with the
// hand-written scanner, advancing s past it. It reports false when the
// object is outside the scanner's subset (see jsonscan) or malformed;
// the caller must then decode the document with Parse, which defers to
// encoding/json. After a true return, Canonicalize completes the work
// Parse does.
func (c *Canonicalizer) Scan(s *jsonscan.Scanner) bool {
	c.reset()
	if !s.Consume('{') {
		return false
	}
	var seen [3]bool
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
		var f int
		switch string(key) {
		case "name":
			f = 0
			name, ok := s.String()
			if !ok {
				return false
			}
			c.name = c.addStr(name)
		case "tasks":
			f = 1
			if !c.scanTasks(s) {
				return false
			}
		case "edges":
			f = 2
			if !c.scanEdges(s) {
				return false
			}
		default:
			if jsonscan.FoldsToAny(key, graphKeys) || !s.Skip() {
				return false
			}
			continue
		}
		if seen[f] {
			return false // duplicate key: encoding/json keeps the last
		}
		seen[f] = true
	}
}

func (c *Canonicalizer) scanTasks(s *jsonscan.Scanner) bool {
	if !s.Consume('[') {
		return false
	}
	for first := true; ; first = false {
		more, ok := s.Next(']', first)
		if !ok {
			return false
		}
		if !more {
			return true
		}
		if !s.Consume('{') {
			return false
		}
		var t canonTask
		var seen [3]bool
		for first := true; ; first = false {
			more, ok := s.Next('}', first)
			if !ok {
				return false
			}
			if !more {
				break
			}
			key, ok := s.Key()
			if !ok {
				return false
			}
			var f int
			switch string(key) {
			case "id":
				f = 0
				id, ok := s.Int()
				if !ok {
					return false
				}
				t.ID = int(id)
			case "name":
				f = 1
				name, ok := s.String()
				if !ok {
					return false
				}
				t.Name = c.addStr(name)
			case "load":
				f = 2
				if t.Load, ok = s.Float(); !ok {
					return false
				}
			default:
				if jsonscan.FoldsToAny(key, taskKeys) || !s.Skip() {
					return false
				}
				continue
			}
			if seen[f] {
				return false
			}
			seen[f] = true
		}
		c.tasks = append(c.tasks, t)
	}
}

func (c *Canonicalizer) scanEdges(s *jsonscan.Scanner) bool {
	if !s.Consume('[') {
		return false
	}
	for first := true; ; first = false {
		more, ok := s.Next(']', first)
		if !ok {
			return false
		}
		if !more {
			return true
		}
		if !s.Consume('{') {
			return false
		}
		var e jsonEdge
		var seen [3]bool
		for first := true; ; first = false {
			more, ok := s.Next('}', first)
			if !ok {
				return false
			}
			if !more {
				break
			}
			key, ok := s.Key()
			if !ok {
				return false
			}
			var f int
			var v int64
			switch string(key) {
			case "from":
				f = 0
				v, ok = s.Int()
				e.From = int(v)
			case "to":
				f = 1
				v, ok = s.Int()
				e.To = int(v)
			case "bits":
				f = 2
				e.Bits, ok = s.Float()
			default:
				if jsonscan.FoldsToAny(key, edgeKeys) || !s.Skip() {
					return false
				}
				continue
			}
			if !ok || seen[f] {
				return false
			}
			seen[f] = true
		}
		c.edges = append(c.edges, e)
	}
}

// Canonicalize validates a decoded document and builds its canonical
// form and fingerprint. Parse calls it; after Scan the caller does.
func (c *Canonicalizer) Canonicalize() error {
	tasks := c.tasks
	if !slices.IsSortedFunc(tasks, cmpTaskID) {
		slices.SortFunc(tasks, cmpTaskID)
	}
	for i := range tasks {
		if tasks[i].ID != i {
			return fmt.Errorf("taskgraph: decode: task IDs not dense (got %d at position %d)", tasks[i].ID, i)
		}
	}
	n := len(tasks)
	for _, e := range c.edges {
		// Mirrors Graph.AddEdge's checks (and their order) exactly.
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("taskgraph: decode: taskgraph: edge (%d,%d): unknown task", e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("taskgraph: decode: taskgraph: self-loop on task %d", e.From)
		}
		if e.Bits < 0 {
			return fmt.Errorf("taskgraph: decode: taskgraph: edge (%d,%d): negative volume %g", e.From, e.To, e.Bits)
		}
	}
	// Canonical edge order: stable-sort a copy by (from, to) and merge
	// duplicates by accumulating volumes. Stability preserves arrival
	// order within a duplicate group, so the float sum associates exactly
	// like repeated AddEdge calls — merged volumes are bit-identical to
	// the decoded graph's.
	c.canon = append(c.canon, c.edges...)
	slices.SortStableFunc(c.canon, cmpEdge)
	w := 0
	for _, e := range c.canon {
		if w > 0 && c.canon[w-1].From == e.From && c.canon[w-1].To == e.To {
			c.canon[w-1].Bits += e.Bits
			continue
		}
		c.canon[w] = e
		w++
	}
	c.canon = c.canon[:w]
	c.fp = c.fingerprint()
	return nil
}

func cmpTaskID(a, b canonTask) int { return cmp.Compare(a.ID, b.ID) }

func cmpEdge(a, b jsonEdge) int {
	if a.From != b.From {
		return cmp.Compare(a.From, b.From)
	}
	return cmp.Compare(a.To, b.To)
}

// fnv64Offset and fnv64Prime are the FNV-1a parameters of hash/fnv,
// inlined so fingerprinting allocates nothing.
const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

func fnv1aU64(h, v uint64) uint64 {
	// Big-endian byte order, matching Graph.Fingerprint's
	// binary.BigEndian.PutUint64 + fnv.Write.
	for shift := 56; shift >= 0; shift -= 8 {
		h ^= v >> shift & 0xFF
		h *= fnv64Prime
	}
	return h
}

// fingerprint replicates Graph.Fingerprint over the canonical form: task
// count, clamped loads in ID order, then (from, to, bits) per canonical
// edge.
func (c *Canonicalizer) fingerprint() uint64 {
	h := fnv1aU64(fnv64Offset, uint64(len(c.tasks)))
	for _, t := range c.tasks {
		load := t.Load
		if load < 0 {
			load = 0
		}
		h = fnv1aU64(h, math.Float64bits(load))
	}
	for _, e := range c.canon {
		h = fnv1aU64(h, uint64(e.From))
		h = fnv1aU64(h, uint64(e.To))
		h = fnv1aU64(h, math.Float64bits(e.Bits))
	}
	return h
}

// Fingerprint returns the parsed graph's structural fingerprint, equal to
// Graph.Fingerprint of the materialized graph.
func (c *Canonicalizer) Fingerprint() uint64 { return c.fp }

// NumTasks returns the parsed graph's task count.
func (c *Canonicalizer) NumTasks() int { return len(c.tasks) }

// Sketch returns the parsed graph's structural minhash sketch, equal to
// Graph.Sketch of the materialized graph. It is computed on first use
// from the canonical task and merged-edge lists: only the similarity
// paths of a cold annealing solve read it, so a cache hit never pays
// for its 64 lanes.
func (c *Canonicalizer) Sketch() Sketch {
	if !c.skOK {
		c.sk.Reset()
		for _, t := range c.tasks {
			c.sk.Add(taskShingle(t.ID, t.Load))
		}
		for _, e := range c.canon {
			c.sk.Add(edgeShingle(e.From, e.To, e.Bits))
		}
		c.skOK = true
	}
	return c.sk
}

// AppendCanonicalJSON appends the canonical compact JSON encoding to dst
// and returns the extended slice. The bytes are identical to
// Graph.CanonicalJSON of the materialized graph: same structure, same
// encoding/json number and string formats (HTML-escaped), same null
// spellings for empty task/edge lists.
func (c *Canonicalizer) AppendCanonicalJSON(dst []byte) []byte {
	dst = append(dst, `{"name":`...)
	dst = appendJSONString(dst, c.str(c.name))
	dst = append(dst, `,"tasks":`...)
	if len(c.tasks) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, t := range c.tasks {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"id":`...)
			dst = strconv.AppendInt(dst, int64(t.ID), 10)
			if t.Name.hi > t.Name.lo {
				dst = append(dst, `,"name":`...)
				dst = appendJSONString(dst, c.str(t.Name))
			}
			dst = append(dst, `,"load":`...)
			load := t.Load
			if load < 0 {
				load = 0 // AddTask's clamp
			}
			dst = appendJSONFloat(dst, load)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"edges":`...)
	if len(c.canon) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, e := range c.canon {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"from":`...)
			dst = strconv.AppendInt(dst, int64(e.From), 10)
			dst = append(dst, `,"to":`...)
			dst = strconv.AppendInt(dst, int64(e.To), 10)
			dst = append(dst, `,"bits":`...)
			dst = appendJSONFloat(dst, e.Bits)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// Graph materializes the parsed document as a *Graph from the decoded
// task and edge lists — no JSON is read again — exactly as
// Graph.UnmarshalJSON would have: tasks added in ID order, edges in input
// order (so adjacency iteration order — and therefore downstream float
// summation order — is unchanged), then a full Validate for the deferred
// acyclicity check.
func (c *Canonicalizer) Graph() (*Graph, error) {
	fresh := New(string(c.str(c.name)))
	for _, t := range c.tasks {
		fresh.AddTask(string(c.str(t.Name)), t.Load)
	}
	for _, e := range c.edges {
		if err := fresh.AddEdge(TaskID(e.From), TaskID(e.To), e.Bits); err != nil {
			return nil, fmt.Errorf("taskgraph: decode: %w", err)
		}
	}
	if err := fresh.Validate(); err != nil {
		return nil, fmt.Errorf("taskgraph: decode: %w", err)
	}
	return fresh, nil
}

const jsonHex = "0123456789abcdef"

// appendJSONString appends s as an encoding/json string literal with the
// default HTML escaping — byte-identical to json.Marshal(string(s)).
func appendJSONString[S ~string | ~[]byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', jsonHex[b>>4], jsonHex[b&0xF])
			}
			i++
			start = i
			continue
		}
		// At most one rune's bytes: the conversion stays on the stack.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		// U+2028 and U+2029 are valid JSON but break JavaScript string
		// literals; encoding/json escapes them.
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f in encoding/json's float64 format: shortest
// round-trip representation, 'f' form except for very small or very large
// magnitudes, with the exponent's leading zero trimmed. Inputs come from
// parsed JSON numbers, so NaN and infinities cannot occur.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Trim "e-09" to "e-9", as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
