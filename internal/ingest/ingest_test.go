package ingest

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/jsonscan"
	"repro/internal/taskgraph"
)

// outcome is what the service makes of one request body: the 400 text,
// or the decoded envelope and graph.
type outcome struct {
	err   string
	topo  string
	comm  [4]*float64
	hasC  bool
	flags [5]bool // nocomm, cooperative, tempering, nocache, trace
	strs  [2]string
	ints  [4]int64 // seed, restarts, timeout_ms, member_timeout_ms
	wb    *float64
	graph *taskgraph.Graph
	canon []byte
	fp    uint64
}

func (o outcome) equal(p outcome) bool {
	if o.err != "" || p.err != "" {
		return o.err == p.err
	}
	return o.topo == p.topo && o.hasC == p.hasC && eqFloats(o.comm[:], p.comm[:]) &&
		o.flags == p.flags && o.strs == p.strs && o.ints == p.ints &&
		eqFloats([]*float64{o.wb}, []*float64{p.wb}) &&
		reflect.DeepEqual(o.graph, p.graph) && bytes.Equal(o.canon, p.canon) && o.fp == p.fp
}

func eqFloats(a, b []*float64) bool {
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) ||
			a[i] != nil && math.Float64bits(*a[i]) != math.Float64bits(*b[i]) {
			return false
		}
	}
	return true
}

// outcomeOf runs a decoded request through the rest of the service's
// ingest: graph validation, then materialization.
func outcomeOf(r *Request) outcome {
	if err := r.ParseGraph(); err != nil {
		return outcome{err: err.Error()}
	}
	g, err := r.BuildGraph()
	if err != nil {
		return outcome{err: err.Error()}
	}
	o := outcome{topo: r.Topo, hasC: r.Comm != nil, wb: r.Wb,
		flags: [5]bool{r.NoComm, r.Cooperative, r.Tempering, r.NoCache, r.Trace},
		strs:  [2]string{r.Solver, r.Lane},
		ints:  [4]int64{r.Seed, int64(r.Restarts), int64(r.TimeoutMS), int64(r.MemberTimeoutMS)},
		graph: g, canon: r.Graph.AppendCanonicalJSON(nil), fp: r.Graph.Fingerprint()}
	if r.Comm != nil {
		o.comm = [4]*float64{r.Comm.Bandwidth, r.Comm.Sigma, r.Comm.Tau, r.Comm.Scale}
	}
	return o
}

func post(body []byte) (*httptest.ResponseRecorder, *http.Request) {
	return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
}

// decodeSingle is the service's single-request ingest.
func decodeSingle(body []byte) outcome {
	r := Get()
	defer r.Release()
	if err := r.DecodeBody(post(body)); err != nil {
		return outcome{err: err.Error()}
	}
	return outcomeOf(r)
}

// decodeBatchOutcomes is the service's batch ingest: the batch-level 400
// text, or one outcome per member.
func decodeBatchOutcomes(body []byte) (string, []outcome) {
	members, err := DecodeBatchBody(post(body))
	if err != nil {
		return err.Error(), nil
	}
	out := make([]outcome, len(members))
	for i, m := range members {
		out[i] = outcomeOf(m)
		m.Release()
	}
	return "", out
}

// refDecode is the reference: the decode the service performed before
// the scanner. A json.Decoder reads the size-capped body into the
// envelope with a raw graph, then each graph is json.Unmarshal'ed into a
// *taskgraph.Graph. The types are local mirrors named like the package's
// decode forms, so encoding/json's error text names the same types. It
// returns the request-level 400 text, or one outcome per request (one
// for a single request, one per member for a batch).
func refDecode(body []byte, batch bool) (string, []outcome) {
	type CommOverride struct {
		Bandwidth *float64 `json:"bandwidth,omitempty"`
		Sigma     *float64 `json:"sigma,omitempty"`
		Tau       *float64 `json:"tau,omitempty"`
		Scale     *float64 `json:"scale,omitempty"`
	}
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
	type rawBatch struct {
		Requests []rawRequest `json:"requests"`
	}
	member := func(raw *rawRequest) outcome {
		if len(raw.Graph) == 0 || string(raw.Graph) == "null" {
			return outcome{err: "missing graph"}
		}
		var g taskgraph.Graph
		if err := json.Unmarshal(raw.Graph, &g); err != nil {
			return outcome{err: "decode request: " + err.Error()}
		}
		canon, err := g.CanonicalJSON()
		if err != nil {
			panic(err) // a decoded graph holds no NaN or infinity
		}
		o := outcome{topo: raw.Topo, hasC: raw.Comm != nil, wb: raw.Wb,
			flags: [5]bool{raw.NoComm, raw.Cooperative, raw.Tempering, raw.NoCache, raw.Trace},
			strs:  [2]string{raw.Solver, raw.Lane},
			ints:  [4]int64{raw.Seed, int64(raw.Restarts), int64(raw.TimeoutMS), int64(raw.MemberTimeoutMS)},
			graph: &g, canon: canon, fp: g.Fingerprint()}
		if raw.Comm != nil {
			o.comm = [4]*float64{raw.Comm.Bandwidth, raw.Comm.Sigma, raw.Comm.Tau, raw.Comm.Scale}
		}
		return o
	}
	rec, hr := post(body)
	stream := http.MaxBytesReader(rec, hr.Body, MaxBodyBytes)
	if batch {
		var b rawBatch
		if err := json.NewDecoder(stream).Decode(&b); err != nil {
			return "decode batch: " + err.Error(), nil
		}
		out := make([]outcome, len(b.Requests))
		for i := range b.Requests {
			out[i] = member(&b.Requests[i])
		}
		return "", out
	}
	var raw rawRequest
	if err := json.NewDecoder(stream).Decode(&raw); err != nil {
		return "decode request: " + err.Error(), nil
	}
	return "", []outcome{member(&raw)}
}

// checkParity holds the single and batch ingest of body to the reference:
// the same accept/reject decision, the same 400 text and the same field
// and graph values. A batch's first member must also decode alone, as the
// proxy routes it, to the same values.
func checkParity(t *testing.T, body []byte) {
	t.Helper()
	show := body
	if len(show) > 200 {
		show = show[:200]
	}
	refErr, ref := refDecode(body, false)
	got := decodeSingle(body)
	want := outcome{err: refErr}
	if refErr == "" {
		want = ref[0]
	}
	if !got.equal(want) {
		t.Fatalf("single request %q:\n got %+v\nwant %+v", show, got, want)
	}

	refErr, ref = refDecode(body, true)
	gotErr, gotMembers := decodeBatchOutcomes(body)
	if gotErr != refErr || len(gotMembers) != len(ref) {
		t.Fatalf("batch %q: got error %q with %d members, want %q with %d",
			show, gotErr, len(gotMembers), refErr, len(ref))
	}
	for i := range ref {
		if !gotMembers[i].equal(ref[i]) {
			t.Fatalf("batch %q member %d:\n got %+v\nwant %+v", show, i, gotMembers[i], ref[i])
		}
	}
	if len(ref) > 0 {
		r := Get()
		defer r.Release()
		if err := r.DecodeBatchHead(body); err != nil {
			t.Fatalf("batch %q: head decode failed: %v", show, err)
		}
		if head := outcomeOf(r); !head.equal(ref[0]) {
			t.Fatalf("batch %q head:\n got %+v\nwant %+v", show, head, ref[0])
		}
	}
}

const plainGraph = `{"name":"g","tasks":[{"id":0,"name":"a","load":5},{"id":1,"load":2.5}],"edges":[{"from":0,"to":1,"bits":40}]}`

// envelopeCases pin the inputs where encoding/json's semantics are easy
// to get wrong; each must decode exactly as the reference does.
var envelopeCases = map[string]string{
	"plain": `{"graph":` + plainGraph + `,"topo":"hypercube:2","solver":"hlf","seed":7}`,
	"every field": `{"graph":` + plainGraph + `,"topo":"ring:4","comm":{"bandwidth":2,"sigma":0.5,"tau":1e-3,"scale":0.25},` +
		`"nocomm":true,"solver":"sa","seed":-9223372036854775808,"wb":0.7,"restarts":4,"cooperative":true,` +
		`"tempering":true,"timeout_ms":250,"member_timeout_ms":50,"lane":"batch","nocache":true,"trace":true}`,
	"partial comm": `{"graph":` + plainGraph + `,"topo":"ring:4","comm":{"scale":0}}`,
	"whitespace":   " \t\r\n{ \"graph\" : " + plainGraph + " , \"topo\" : \"ring:4\" } ",

	// keys
	"case-variant graph key":  `{"Graph":` + plainGraph + `,"topo":"ring:4"}`,
	"case-variant topo key":   `{"graph":` + plainGraph + `,"TOPO":"ring:4"}`,
	"case-variant graph keys": `{"graph":{"Tasks":[{"ID":0,"Load":1}],"EDGES":null},"topo":"ring:4"}`,
	"kelvin sign key":         `{"graph":` + plainGraph + `,"topo":"ring:4","nocacKe":true}`,
	"duplicate topo":          `{"graph":` + plainGraph + `,"topo":"ring:4","topo":"mesh:2x2"}`,
	"duplicate graph":         `{"graph":` + plainGraph + `,"graph":{"tasks":[{"id":0,"load":9}]},"topo":"ring:4"}`,
	"duplicate task list":     `{"graph":{"tasks":[{"id":0,"name":"x","load":1}],"tasks":[{"id":0,"load":2}]},"topo":"ring:4"}`,
	"duplicate comm":          `{"graph":` + plainGraph + `,"topo":"ring:4","comm":{"bandwidth":1},"comm":{"sigma":2}}`,
	"duplicate task field":    `{"graph":{"tasks":[{"id":0,"load":1,"load":3}]},"topo":"ring:4"}`,
	"unknown fields": `{"x":[1,{"y":"é
"},null,true,-1.5e3],"graph":{"tasks":[{"id":0,"load":1,"z":{}}],"w":"v"},"topo":"ring:4","extra":false}`,
	"null members":        `{"graph":` + plainGraph + `,"topo":null,"comm":null,"wb":null,"seed":null,"lane":null}`,
	"null graph":          `{"graph":null,"topo":"ring:4"}`,
	"null task list":      `{"graph":{"tasks":null,"edges":null},"topo":"ring:4"}`,
	"null task":           `{"graph":{"tasks":[null]},"topo":"ring:4"}`,
	"missing graph":       `{"topo":"ring:4"}`,
	"graph not an object": `{"graph":"g","topo":"ring:4"}`,

	// strings
	"escaped key":          `{"graph":` + plainGraph + `,"topo":"ring:4"}`,
	"escaped string":       `{"graph":` + plainGraph + `,"topo":"ring:4","solver":"h\/lf"}`,
	"escaped name":         `{"graph":{"name":"a"b\c<","tasks":[{"id":0,"name":"	","load":1}]},"topo":"ring:4"}`,
	"non-ASCII name":       `{"graph":{"name":"gräph","tasks":[{"id":0,"name":"täsk","load":1}]},"topo":"ring:4"}`,
	"invalid UTF-8 name":   "{\"graph\":{\"name\":\"\xff\xfe\",\"tasks\":[{\"id\":0,\"name\":\"a\xc3\",\"load\":1}]},\"topo\":\"ring:4\"}",
	"control char":         "{\"graph\":" + plainGraph + ",\"topo\":\"ring\x01:4\"}",
	"string in int field":  `{"graph":` + plainGraph + `,"topo":"ring:4","seed":"7"}`,
	"number in bool field": `{"graph":` + plainGraph + `,"topo":"ring:4","trace":1}`,
	"object in comm":       `{"graph":` + plainGraph + `,"topo":"ring:4","comm":3}`,
	"top-level array":      `[1,2,3]`,
	"top-level string":     `"schedule me"`,
	"top-level null":       `null`,

	// numbers
	"exponent in int field": `{"graph":{"tasks":[{"id":1e2,"load":1}]},"topo":"ring:4"}`,
	"fraction in int field": `{"graph":` + plainGraph + `,"topo":"ring:4","restarts":1.0}`,
	"negative zero":         `{"graph":{"tasks":[{"id":-0,"load":-0}],"edges":[]},"topo":"ring:4","seed":-0,"wb":-0.0}`,
	"int overflow":          `{"graph":` + plainGraph + `,"topo":"ring:4","seed":9223372036854775808}`,
	"int underflow":         `{"graph":` + plainGraph + `,"topo":"ring:4","seed":-9223372036854775809}`,
	"int max":               `{"graph":` + plainGraph + `,"topo":"ring:4","seed":9223372036854775807}`,
	"float overflow":        `{"graph":{"tasks":[{"id":0,"load":1e400}]},"topo":"ring:4"}`,
	"float underflow":       `{"graph":{"tasks":[{"id":0,"load":1e-400}]},"topo":"ring:4"}`,
	"long mantissa":         `{"graph":{"tasks":[{"id":0,"load":0.1000000000000000055511151231257827}]},"topo":"ring:4","wb":123456789012345678901234567890}`,
	"exact-path floats":     `{"graph":{"tasks":[{"id":0,"load":123456789012345},{"id":1,"load":1.5e-22},{"id":2,"load":9e22}]},"topo":"ring:4"}`,
	"leading zero":          `{"graph":` + plainGraph + `,"topo":"ring:4","seed":07}`,
	"plus sign":             `{"graph":` + plainGraph + `,"topo":"ring:4","wb":+1}`,
	"bare dot":              `{"graph":` + plainGraph + `,"topo":"ring:4","wb":1.}`,

	// graph validation
	"non-dense ids": `{"graph":{"tasks":[{"id":0,"load":1},{"id":2,"load":1}]},"topo":"ring:4"}`,
	"unknown task":  `{"graph":{"tasks":[{"id":0,"load":1}],"edges":[{"from":0,"to":3,"bits":1}]},"topo":"ring:4"}`,
	"cycle": `{"graph":{"tasks":[{"id":0,"load":1},{"id":1,"load":1}],` +
		`"edges":[{"from":0,"to":1,"bits":1},{"from":1,"to":0,"bits":1}]},"topo":"ring:4"}`,
	"permuted and merged": `{"graph":{"tasks":[{"id":1,"load":1},{"id":0,"load":2}],` +
		`"edges":[{"from":1,"to":0,"bits":0.1},{"from":1,"to":0,"bits":0.2}]},"topo":"ring:4"}`,

	// bodies
	"empty body":           ``,
	"whitespace body":      " \n",
	"truncated body":       `{"graph":{"tasks":[{"id":0,"lo`,
	"trailing bytes":       `{"graph":` + plainGraph + `,"topo":"ring:4"} trailing garbage {`,
	"second value":         `{"graph":` + plainGraph + `,"topo":"ring:4"}{"topo":"mesh:2x2"}`,
	"syntax error in skip": `{"x":[1,],"graph":` + plainGraph + `,"topo":"ring:4"}`,
	"deep unknown value":   `{"x":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `,"graph":` + plainGraph + `,"topo":"ring:4"}`,
	"nesting bomb":         strings.Repeat(`{"graph":`, 100),

	// batches
	"batch": `{"requests":[{"graph":` + plainGraph + `,"topo":"ring:4"},{"graph":` + plainGraph + `,"topo":"mesh:2x2","seed":3}]}`,
	"batch with bad members": `{"requests":[{"graph":` + plainGraph + `,"topo":"ring:4"},{"topo":"ring:4"},` +
		`{"graph":{"tasks":[{"id":5,"load":1}]}}]}`,
	"empty batch":          `{"requests":[]}`,
	"null batch member":    `{"requests":[null]}`,
	"case-variant batch":   `{"Requests":[{"graph":` + plainGraph + `,"topo":"ring:4"}]}`,
	"batch trailing bytes": `{"requests":[{"graph":` + plainGraph + `,"topo":"ring:4"}]}]]`,
	"batch type error":     `{"requests":[{"graph":` + plainGraph + `,"topo":4}]}`,
}

// TestScheduleEnvelopeParity runs the pinned cases, plus a body over
// MaxBodyBytes, through the parity check.
func TestScheduleEnvelopeParity(t *testing.T) {
	for name, body := range envelopeCases {
		t.Run(name, func(t *testing.T) { checkParity(t, []byte(body)) })
	}
	t.Run("body over MaxBodyBytes", func(t *testing.T) {
		// The envelope never closes within the cap: the reference fails
		// with the size error.
		body := []byte(`{"graph":` + plainGraph + `,"topo":"ring:4","x":"`)
		body = append(body, bytes.Repeat([]byte{'a'}, MaxBodyBytes)...)
		body = append(body, `"}`...)
		checkParity(t, body)
		if got := decodeSingle(body).err; got != "decode request: http: request body too large" {
			t.Fatalf("oversize body: got %q", got)
		}
	})
	t.Run("complete within MaxBodyBytes", func(t *testing.T) {
		// The first value ends before the cap: like a json.Decoder, the
		// decode succeeds without reading past it.
		body := []byte(`{"graph":` + plainGraph + `,"topo":"ring:4"}`)
		body = append(body, bytes.Repeat([]byte{' '}, MaxBodyBytes)...)
		checkParity(t, body)
		if got := decodeSingle(body).err; got != "" {
			t.Fatalf("oversize trailing space: got %q", got)
		}
	})
	if got := decodeSingle(nil).err; got != "decode request: EOF" {
		t.Fatalf("empty body: got %q, want %q", got, "decode request: EOF")
	}
}

// FuzzScheduleEnvelope holds the single-pass ingest to the reference on
// arbitrary bytes, as a single request and as a batch.
func FuzzScheduleEnvelope(f *testing.F) {
	for _, body := range envelopeCases {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkParity(t, body) })
}

// TestPlainClientBodiesScan pins the fast path's coverage: the bodies a
// plain json.Marshal client produces decode without falling back to
// encoding/json.
func TestPlainClientBodiesScan(t *testing.T) {
	type comm struct {
		Bandwidth *float64 `json:"bandwidth,omitempty"`
		Scale     *float64 `json:"scale,omitempty"`
	}
	type request struct {
		Graph       *taskgraph.Graph `json:"graph"`
		Topo        string           `json:"topo"`
		Comm        *comm            `json:"comm,omitempty"`
		Solver      string           `json:"solver,omitempty"`
		Seed        int64            `json:"seed,omitempty"`
		Wb          *float64         `json:"wb,omitempty"`
		Restarts    int              `json:"restarts,omitempty"`
		Cooperative bool             `json:"cooperative,omitempty"`
		Lane        string           `json:"lane,omitempty"`
	}
	g, err := taskgraph.ForkJoin("fj", 6, 3.25, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	bw, wb := 12.5, 0.3
	for _, req := range []request{
		{Graph: g, Topo: "hypercube:3"},
		{Graph: g, Topo: "mesh:3x4", Comm: &comm{Bandwidth: &bw}, Solver: "sa",
			Seed: -8674665223082153551, Wb: &wb, Restarts: 4, Cooperative: true, Lane: "batch"},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var r Request
		if !r.scan(&jsonscan.Scanner{Data: body}) {
			t.Errorf("plain client body left to encoding/json: %s", body)
		}
		checkParity(t, body)
	}
}

// TestScanFieldsFollowWireKeys ties the scanner's field dispatch to the
// decode forms' tags: scanField maps each envelope key to its index in
// rawRequest, and scanComm fills the CommOverride field of each comm key.
func TestScanFieldsFollowWireKeys(t *testing.T) {
	var r Request
	for i, key := range envelopeKeys {
		if f, _ := r.scanField(&jsonscan.Scanner{Data: []byte("null")}, []byte(key)); f != i {
			t.Errorf("scanField(%q) = field %d, want %d", key, f, i)
		}
	}
	if f, _ := r.scanField(&jsonscan.Scanner{Data: []byte("null")}, []byte("unknown")); f != -1 {
		t.Errorf("scanField(unknown) = field %d, want -1", f)
	}
	for i, key := range commKeys {
		r.reset()
		if !r.scanComm(&jsonscan.Scanner{Data: []byte(`{"` + key + `":1}`)}) {
			t.Fatalf("comm key %q not scanned", key)
		}
		if reflect.ValueOf(r.Comm).Elem().Field(i).IsNil() {
			t.Errorf("comm key %q did not set CommOverride field %d", key, i)
		}
	}
}

// TestDeclaredLengthDoesNotSizeBuffer sends bodies that declare
// MaxBodyBytes in Content-Length but carry a few bytes, as a client that
// stalls after its headers does: the bytes allocated must stay near the
// bytes sent, not the bytes declared.
func TestDeclaredLengthDoesNotSizeBuffer(t *testing.T) {
	body := []byte(`{"graph":` + plainGraph + `,"topo":"ring:4"`) // truncated
	decode := func(batch bool) {
		w, hr := post(body)
		hr.ContentLength = MaxBodyBytes
		if batch {
			_, _ = DecodeBatchBody(w, hr)
			return
		}
		r := Get()
		_ = r.DecodeBody(w, hr)
		r.Release()
	}
	for _, batch := range []bool{false, true} {
		decode(batch)
		const runs = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			decode(batch)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 64<<10 {
			t.Errorf("batch=%v: %d bytes allocated per %d-byte body declaring %d", batch, per, len(body), MaxBodyBytes)
		}
	}
}
