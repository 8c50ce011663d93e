package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machsim"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/solver"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Span names. Where the server has a trace stage for the same call, the
// span reuses its obs name, so a slow production stage names the layer
// metric that reproduces it.
const (
	spanRequest    = "request"
	spanCanon      = obs.StageCanonicalize // taskgraph.Canonicalizer.Parse
	spanMemTier    = obs.StageMemTier      // service.Cache.Get
	spanDiskTier   = obs.StageDiskTier     // service.DiskCache.Get
	spanGraphBuild = "graph_build"         // taskgraph.Canonicalizer.Graph
	spanQueue      = obs.StageQueue        // engine.Engine.Solve
	spanSolve      = obs.StageSolve        // the wrapping solver.Solver
	spanSimulate   = "simulate"            // machsim run of the policy
	spanAssign     = "assign"              // one Policy.Assign call
	spanMarshal    = obs.StageMarshal      // service.ResultFromSim + json.Marshal
	spanValidate   = "validate"            // schedule.Schedule.Validate
	spanReference  = "reference"           // a reference solve by the other solver
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the span whose call caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	Dur    int64  `json:"dur_ns"`
}

// solveStat is what one traced solve did beyond its spans.
type solveStat struct {
	ref      bool   // a reference solve, not a request's
	policy   string // the policy's report name ("SA", "HLF")
	assign   time.Duration
	simulate time.Duration // the simulator's own time: run minus assign
	epochs   int
	moves    int
	accepted int
	stages   int
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced comparison pass runs the
// same code.
type recorder struct {
	epoch  time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
	solves []solveStat
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open is a span in progress; the zero value (from a nil recorder) is a
// no-op.
type open struct {
	rec   *recorder
	req   int64
	id    int64
	start time.Time
	name  string
	par   int64
}

func (r *recorder) root(req int64, name string) open {
	if r == nil {
		return open{}
	}
	return open{rec: r, req: req, id: r.ids.Add(1), start: time.Now(), name: name}
}

func (o open) child(name string) open {
	if o.rec == nil {
		return open{}
	}
	return open{rec: o.rec, req: o.req, id: o.rec.ids.Add(1), start: time.Now(), name: name, par: o.id}
}

func (o open) end() {
	if o.rec == nil {
		return
	}
	d := time.Since(o.start)
	o.rec.mu.Lock()
	o.rec.spans = append(o.rec.spans, span{ID: o.id, Parent: o.par, Req: o.req, Name: o.name,
		Start: int64(o.start.Sub(o.rec.epoch)), Dur: int64(d)})
	o.rec.mu.Unlock()
}

func (r *recorder) addSolve(st solveStat) {
	r.mu.Lock()
	r.solves = append(r.solves, st)
	r.mu.Unlock()
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

func withSpan(ctx context.Context, o open) context.Context {
	return context.WithValue(ctx, spanKey{}, o)
}

func spanFrom(ctx context.Context) open {
	o, _ := ctx.Value(spanKey{}).(open)
	return o
}

// tracedSolver wraps a registry solver's policy so the solve, the
// simulator and every Policy.Assign call are timed. It builds the policy
// exactly as the registry's policy solvers do, on the engine worker's
// arenas when present, so its results are byte-identical to theirs.
type tracedSolver struct {
	name string
	rec  *recorder
	ref  bool // solving a reference, not a request
}

func (t tracedSolver) Name() string        { return t.name }
func (t tracedSolver) Description() string { return "traced " + t.name }

func (t tracedSolver) Solve(ctx context.Context, req solver.Request) (*machsim.Result, error) {
	sp := spanFrom(ctx).child(spanSolve)
	defer sp.end()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	var pol machsim.Policy
	if t.name == "sa" && req.Sched != nil {
		if err := req.Sched.Reset(req.Graph, req.Topo, req.Comm, req.SA); err != nil {
			return nil, err
		}
		pol = req.Sched
	} else {
		var err error
		if pol, err = solver.NewPolicy(t.name, req.Graph, req.Topo, req.Comm, req.SA); err != nil {
			return nil, err
		}
	}
	sim := sp.child(spanSimulate)
	tp := &timedPolicy{Policy: pol, parent: sim, timed: t.rec != nil}
	model := machsim.Model{Graph: req.Graph, Topo: req.Topo, Comm: req.Comm}
	simStart := time.Now()
	var res *machsim.Result
	if req.Arena != nil {
		if err := req.Arena.Bind(model, req.Sim); err != nil {
			return nil, err
		}
		r, err := req.Arena.Run(tp)
		if err != nil {
			return nil, err
		}
		res = r.Clone()
	} else {
		var err error
		if res, err = machsim.Run(model, tp, req.Sim); err != nil {
			return nil, err
		}
	}
	run := time.Since(simStart)
	sim.end()
	if t.rec != nil {
		st := solveStat{ref: t.ref, policy: pol.Name(), assign: tp.total,
			simulate: run - tp.total, epochs: len(res.Epochs)}
		if sc, ok := pol.(*core.Scheduler); ok {
			for _, p := range sc.Packets() {
				st.moves += p.Moves
				st.accepted += p.Accepted
				st.stages += p.Stages
			}
		}
		t.rec.addSolve(st)
	}
	return res, nil
}

// timedPolicy times every Assign call of the policy it wraps.
type timedPolicy struct {
	machsim.Policy
	parent open
	timed  bool
	total  time.Duration
}

func (p *timedPolicy) Assign(ep *machsim.Epoch) []machsim.Assignment {
	if !p.timed {
		return p.Policy.Assign(ep)
	}
	sp := p.parent.child(spanAssign)
	out := p.Policy.Assign(ep)
	p.total += time.Since(sp.start)
	sp.end()
	return out
}

// envelope mirrors the fields of the server's request envelope that the
// workloads use.
type envelope struct {
	Graph  json.RawMessage `json:"graph"`
	Topo   string          `json:"topo"`
	Solver string          `json:"solver,omitempty"`
	Seed   int64           `json:"seed,omitempty"`
}

// keyOptions mirrors the option block of the server's cache-key document
// field for field, so the in-process path derives the server's content
// address; traced hits prove it by matching X-DTServe-Address.
type keyOptions struct {
	Topo          string              `json:"topo"`
	Comm          topology.CommParams `json:"comm"`
	Solver        string              `json:"solver"`
	Seed          int64               `json:"seed"`
	Wb            float64             `json:"wb"`
	Wc            float64             `json:"wc"`
	Restarts      int                 `json:"restarts"`
	Timeout       int                 `json:"timeout_ms"`
	MemberTimeout int                 `json:"member_timeout_ms,omitempty"`
	Cooperative   bool                `json:"cooperative,omitempty"`
	Tempering     bool                `json:"tempering,omitempty"`
}

// stack is the server's request path assembled in process from the
// packages' public functions: memory and disk tiers, the solve engine and
// the wire marshaling, with a span around each call.
type stack struct {
	dir   string // the disk tier's directory, removed by close
	rec   *recorder
	topos map[string]*topology.Topology
	cache *service.Cache
	disk  *service.DiskCache
	eng   *engine.Engine
}

// canonPool reuses canonicalizers across requests, as the server does.
var canonPool = sync.Pool{New: func() any { return new(taskgraph.Canonicalizer) }}

// newStack sizes the tiers and the engine as dtserve's defaults do, with
// the disk tier in an empty directory.
func newStack(rec *recorder, topos map[string]*topology.Topology, diskDir string) (*stack, error) {
	if err := os.RemoveAll(diskDir); err != nil {
		return nil, err
	}
	disk, err := service.NewDiskCache(diskDir, 0)
	if err != nil {
		return nil, err
	}
	return &stack{dir: diskDir, rec: rec, topos: topos, cache: service.NewCache(4096, 0), disk: disk,
		eng: engine.New(engine.Config{})}, nil
}

// untraced returns a stack sharing s's tiers and engine that records no
// spans.
func (s *stack) untraced() *stack {
	return &stack{topos: s.topos, cache: s.cache, disk: s.disk, eng: s.eng}
}

func (s *stack) close() {
	s.eng.Close()
	s.disk.Close()
	_ = os.RemoveAll(s.dir) // scratch space; a leftover costs only disk
}

// served is one in-process answer.
type served struct {
	body    []byte
	tag     string
	address string
	lat     time.Duration
}

// process answers one request body as the server's /v1/schedule path
// does: envelope decode, canonicalize, key, memory tier, disk tier, and
// on a miss graph build, engine solve, marshal and the tier writes.
func (s *stack) process(ctx context.Context, req int64, payload []byte) (served, error) {
	t0 := time.Now()
	root := s.rec.root(req, spanRequest)
	out, err := s.answer(ctx, root, payload)
	root.end()
	out.lat = time.Since(t0)
	return out, err
}

func (s *stack) answer(ctx context.Context, root open, payload []byte) (served, error) {
	var env envelope
	if err := json.NewDecoder(bytes.NewReader(payload)).Decode(&env); err != nil {
		return served{}, fmt.Errorf("decode request: %w", err)
	}
	c := canonPool.Get().(*taskgraph.Canonicalizer)
	defer canonPool.Put(c)
	sp := root.child(spanCanon)
	err := c.Parse(env.Graph)
	sp.end()
	if err != nil {
		return served{}, err
	}
	topo, ok := s.topos[env.Topo]
	if !ok {
		return served{}, fmt.Errorf("unknown topology %q", env.Topo)
	}
	slv, err := solver.Get(env.Solver)
	if err != nil {
		return served{}, err
	}
	opt := core.DefaultOptions()
	opt.Seed = env.Seed
	comm := topology.DefaultCommParams()
	key, err := contentKey(c, keyOptions{Topo: topo.Name(), Comm: comm, Solver: slv.Name(),
		Seed: opt.Seed, Wb: opt.Wb, Wc: opt.Wc, Restarts: opt.Restarts})
	if err != nil {
		return served{}, err
	}

	sp = root.child(spanMemTier)
	body, ok := s.cache.Get(key)
	sp.end()
	if ok {
		return served{body: body, tag: "hit", address: key}, nil
	}
	sp = root.child(spanDiskTier)
	body, ok = s.disk.Get(key)
	sp.end()
	if ok {
		s.cache.Put(key, body)
		return served{body: body, tag: "disk", address: key}, nil
	}

	sp = root.child(spanGraphBuild)
	g, err := c.Graph()
	sp.end()
	if err != nil {
		return served{}, err
	}
	res, err := s.solve(ctx, root, tracedSolver{name: slv.Name(), rec: s.rec},
		solver.Request{Graph: g, Topo: topo, Comm: comm, SA: opt})
	if err != nil {
		return served{}, err
	}
	sp = root.child(spanMarshal)
	wire, err := service.ResultFromSim(res, g, topo.Name())
	if err == nil {
		body, err = json.Marshal(wire)
	}
	sp.end()
	if err != nil {
		return served{}, err
	}
	s.cache.Put(key, body)
	s.disk.Put(key, body)
	return served{body: body, tag: "miss", address: key}, nil
}

// solve runs one request through the engine under the traced solver.
func (s *stack) solve(ctx context.Context, parent open, slv tracedSolver, req solver.Request) (*machsim.Result, error) {
	sp := parent.child(spanQueue)
	res, err := s.eng.Solve(withSpan(ctx, sp), engine.Job{Solver: slv, Req: req})
	sp.end()
	return res, err
}

// contentKey derives the server's content address: SHA-256 over the
// canonical graph spliced into the key document, prefixed by the graph
// fingerprint.
func contentKey(c *taskgraph.Canonicalizer, opt keyOptions) (string, error) {
	tail, err := json.Marshal(opt)
	if err != nil {
		return "", err
	}
	doc := append([]byte(`{"graph":`), c.AppendCanonicalJSON(nil)...)
	doc = append(doc, ',')
	doc = append(doc, tail[1:]...)
	sum := sha256.Sum256(doc)
	return fmt.Sprintf("%016x-%s", c.Fingerprint(), hex.EncodeToString(sum[:16])), nil
}
