// Package ingest decodes schedule request bodies — the envelope of
// POST /v1/schedule and of each /v1/schedule/batch member — in one pass:
// a hand-written scan over the known wire schema fills the envelope
// fields and decodes the graph straight into a taskgraph.Canonicalizer,
// with no intermediate copy of the graph bytes, no per-task strings and
// no reflection.
//
// The scan covers what a plain encoding/json client sends (exact keys,
// no escapes, ASCII strings, strict numbers, no duplicate keys, no null
// members). Any other body is decoded by encoding/json with the
// semantics the service always had — a json.Decoder reading the
// envelope, then json.Unmarshal semantics for the graph — so
// encoding/json stays the one reference for what is accepted, what the
// values are and what an error says: case-insensitive keys, the last of
// duplicate keys, ignored unknown fields, U+FFFD for invalid UTF-8 and
// "only the first JSON value is read" all hold on both paths. The choice
// is made by the input alone.
package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/jsonscan"
	"repro/internal/taskgraph"
)

// CommOverride is the decode form of the envelope's "comm" member: each
// communication parameter the client overrides, nil where it keeps the
// default. The service's wire type is defined from it.
type CommOverride struct {
	Bandwidth *float64 `json:"bandwidth,omitempty"`
	Sigma     *float64 `json:"sigma,omitempty"`
	Tau       *float64 `json:"tau,omitempty"`
	Scale     *float64 `json:"scale,omitempty"`
}

// Request is one decoded schedule envelope. The option fields mirror the
// service's ScheduleRequest wire form; the graph is held by Graph and is
// complete once ParseGraph has returned nil.
//
// Requests are pooled (Get/Release) because Graph's arrays are the bulk
// of a request's memory and are reused in place.
//
// Every error a Request method returns is a client error whose text is
// the service's 400 message for it.
type Request struct {
	Topo            string
	Comm            *CommOverride
	NoComm          bool
	Solver          string
	Seed            int64
	Wb              *float64
	Restarts        int
	Cooperative     bool
	Tempering       bool
	TimeoutMS       int
	MemberTimeoutMS int
	Lane            string
	NoCache         bool
	Trace           bool

	// Graph is the request's graph, valid after ParseGraph returns nil.
	Graph taskgraph.Canonicalizer

	graph graphState
	raw   []byte // the graph document when graph == graphRaw

	// Backing store for the scanned Comm and Wb pointers, so scanning
	// allocates nothing for them.
	comm     CommOverride
	commVals [4]float64
	wb       float64
}

type graphState uint8

const (
	graphAbsent  graphState = iota // no "graph" member
	graphScanned                   // decoded into Graph, not yet validated
	graphRaw                       // raw holds the document for Graph.Parse
)

// ErrMissingGraph is ParseGraph's error for a request without a graph
// (or with "graph": null).
var ErrMissingGraph = errors.New("missing graph")

// MaxBodyBytes caps a request body. A body cut off by the cap decodes as
// far as it got: a first JSON value complete within the cap is accepted,
// anything else fails with the http.MaxBytesError.
const MaxBodyBytes = 32 << 20

var pool = sync.Pool{New: func() any { return new(Request) }}

// Get returns an empty Request from the pool.
func Get() *Request {
	r := pool.Get().(*Request)
	r.reset()
	return r
}

// Release returns r to the pool; r must not be used afterwards.
func (r *Request) Release() { pool.Put(r) }

// reset clears every field but keeps Graph's and raw's arrays for reuse.
func (r *Request) reset() {
	g := r.Graph
	*r = Request{Graph: g, raw: r.raw[:0]}
}

// SetGraph gives r a graph document to decode at ParseGraph, as if it had
// arrived as the request's "graph" member.
func (r *Request) SetGraph(doc []byte) {
	r.raw = append(r.raw[:0], doc...)
	r.graph = graphRaw
}

// ParseGraph completes the graph's decode: validation, canonical form and
// fingerprint (see taskgraph.Canonicalizer.Parse). It returns
// ErrMissingGraph when the request has none, and the canonicalizer's
// error, with its exact text, when the graph is invalid. Acyclicity is
// checked later, by BuildGraph.
func (r *Request) ParseGraph() error {
	var err error
	switch r.graph {
	case graphScanned:
		err = r.Graph.Canonicalize()
	case graphRaw:
		if string(r.raw) == "null" {
			return ErrMissingGraph
		}
		err = r.Graph.Parse(r.raw)
	default:
		return ErrMissingGraph
	}
	if err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

// BuildGraph materializes the parsed graph (Graph.Graph), running the
// acyclicity check ParseGraph defers.
func (r *Request) BuildGraph() (*taskgraph.Graph, error) {
	g, err := r.Graph.Graph()
	if err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	return g, nil
}

// DecodeBody reads hr's body, capped at MaxBodyBytes, into a pooled
// buffer and decodes it into r (see Decode).
func (r *Request) DecodeBody(w http.ResponseWriter, hr *http.Request) error {
	bb := bodyPool.Get().(*bodyBuf)
	body, readErr := readBody(w, hr, bb.b[:0])
	err := r.Decode(body, readErr)
	bb.release(body)
	return err
}

// DecodeBatchBody reads hr's body like DecodeBody and decodes it as a
// batch (see DecodeBatch).
func DecodeBatchBody(w http.ResponseWriter, hr *http.Request) ([]*Request, error) {
	bb := bodyPool.Get().(*bodyBuf)
	body, readErr := readBody(w, hr, bb.b[:0])
	members, err := DecodeBatch(body, readErr)
	bb.release(body)
	return members, err
}

// bodyBuf is a pooled request-body buffer. Nothing decoded from a body
// aliases it, so it is recycled as soon as the decode returns.
type bodyBuf struct{ b []byte }

var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

// maxPooledBody caps the buffers bodyPool keeps: the rare huge body gets
// a buffer of its own rather than pinning tens of megabytes in the pool.
const maxPooledBody = 4 << 20

// release returns the buffer, possibly regrown to body, to the pool.
func (bb *bodyBuf) release(body []byte) {
	if cap(body) > maxPooledBody {
		return
	}
	bb.b = body
	bodyPool.Put(bb)
}

// readBody reads the body, capped at MaxBodyBytes, into buf. It returns
// the bytes read and the error that ended the read — nil for a clean
// EOF — so Decode sees exactly the stream a json.Decoder would have.
//
// buf grows only as bytes arrive, never from the declared Content-Length:
// a client that declares a large body and then stalls costs no more
// memory than it has sent.
func readBody(w http.ResponseWriter, hr *http.Request, buf []byte) ([]byte, error) {
	src := http.MaxBytesReader(w, hr.Body, MaxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// Decode decodes a single-request body into r. body holds the bytes read
// and readErr the error that ended the read (nil for a clean EOF): the
// result is what a json.Decoder reading the same stream would decode,
// including its errors ("EOF" for an empty body, "unexpected EOF" for a
// truncated one, the read error for a body cut off by a size limit).
// Decode does not validate the graph; ParseGraph does.
func (r *Request) Decode(body []byte, readErr error) error {
	r.reset()
	s := jsonscan.Scanner{Data: body}
	if r.scan(&s) {
		return nil
	}
	r.reset()
	var raw rawRequest
	if err := json.NewDecoder(replay(body, readErr)).Decode(&raw); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	r.fill(&raw)
	return nil
}

// DecodeBatch decodes a batch body into one pooled Request per member,
// with Decode's stream semantics; the caller releases the members. A
// member's graph is left for its ParseGraph, so a bad graph fails only
// its own member.
func DecodeBatch(body []byte, readErr error) ([]*Request, error) {
	var members []*Request
	next := func() *Request {
		members = append(members, Get())
		return members[len(members)-1]
	}
	s := jsonscan.Scanner{Data: body}
	if _, ok := scanBatch(&s, next, false); ok {
		return members, nil
	}
	for _, m := range members {
		m.Release()
	}
	var raw rawBatch
	if err := json.NewDecoder(replay(body, readErr)).Decode(&raw); err != nil {
		return nil, fmt.Errorf("decode batch: %w", err)
	}
	members = make([]*Request, len(raw.Requests))
	for i := range raw.Requests {
		members[i] = Get()
		members[i].fill(&raw.Requests[i])
	}
	return members, nil
}

// DecodeBatchHead decodes only the first member of a batch body into r.
// On the scanned path the bytes after that member are never read; it
// errors when the batch is malformed or has no member.
func (r *Request) DecodeBatchHead(body []byte) error {
	s := jsonscan.Scanner{Data: body}
	if n, ok := scanBatch(&s, func() *Request { return r }, true); ok {
		if n == 0 {
			return errNoMembers
		}
		return nil
	}
	var raw rawBatch
	if err := json.NewDecoder(replay(body, nil)).Decode(&raw); err != nil {
		return err
	}
	if len(raw.Requests) == 0 {
		return errNoMembers
	}
	r.reset()
	r.fill(&raw.Requests[0])
	return nil
}

var errNoMembers = errors.New("ingest: empty batch")

// replay yields body and then readErr (io.EOF when nil): the stream the
// body was read from, for the encoding/json path.
func replay(body []byte, readErr error) io.Reader {
	if readErr == nil {
		readErr = io.EOF
	}
	return &replayReader{data: body, err: readErr}
}

type replayReader struct {
	data []byte
	err  error
}

func (r *replayReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// rawRequest is the encoding/json decode form of one envelope: the graph
// stays raw bytes for the canonicalizer. Field set and tags mirror the
// service's ScheduleRequest exactly.
type rawRequest struct {
	Graph           json.RawMessage `json:"graph"`
	Topo            string          `json:"topo"`
	Comm            *CommOverride   `json:"comm,omitempty"`
	NoComm          bool            `json:"nocomm,omitempty"`
	Solver          string          `json:"solver,omitempty"`
	Seed            int64           `json:"seed,omitempty"`
	Wb              *float64        `json:"wb,omitempty"`
	Restarts        int             `json:"restarts,omitempty"`
	Cooperative     bool            `json:"cooperative,omitempty"`
	Tempering       bool            `json:"tempering,omitempty"`
	TimeoutMS       int             `json:"timeout_ms,omitempty"`
	MemberTimeoutMS int             `json:"member_timeout_ms,omitempty"`
	Lane            string          `json:"lane,omitempty"`
	NoCache         bool            `json:"nocache,omitempty"`
	Trace           bool            `json:"trace,omitempty"`
}

// rawBatch is the encoding/json decode form of a batch body.
type rawBatch struct {
	Requests []rawRequest `json:"requests"`
}

// fill copies a reference-decoded envelope into r (reset beforehand).
func (r *Request) fill(raw *rawRequest) {
	r.Topo = raw.Topo
	r.Comm = raw.Comm
	r.NoComm = raw.NoComm
	r.Solver = raw.Solver
	r.Seed = raw.Seed
	r.Wb = raw.Wb
	r.Restarts = raw.Restarts
	r.Cooperative = raw.Cooperative
	r.Tempering = raw.Tempering
	r.TimeoutMS = raw.TimeoutMS
	r.MemberTimeoutMS = raw.MemberTimeoutMS
	r.Lane = raw.Lane
	r.NoCache = raw.NoCache
	r.Trace = raw.Trace
	if len(raw.Graph) > 0 {
		r.raw = raw.Graph
		r.graph = graphRaw
	}
}
