package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/solver"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

const (
	// tracedColdSA and tracedColdHLF are how many of a cold workload's
	// served requests the traced run replays.
	tracedColdSA  = 240
	tracedColdHLF = 48
	// hitRepeats is how often the traced warm_hit run replays each
	// distinct request as a hit.
	hitRepeats = 2
	// saReferences bounds the SA reference solves on the HLF workload.
	saReferences = 2
	// allocRounds is how many times each graph is parsed when counting
	// the canonicalizer's allocations.
	allocRounds = 20
)

// Request IDs of the traced run: request i of a pass has ID pass+i.
const (
	passSolve     = 1 << 32 // the solves: warm_hit's set-up, a cold workload's requests
	passHit       = 2 << 32 // warm_hit's replays as hits
	passReference = 3 << 32 // the other solver's reference solves
	passValidate  = 4 << 32 // the feasibility checks of the solves
)

// answer is what the server returned for one request.
type answer struct {
	body    []byte
	address string
}

// traced is the outcome of the traced run: the per-layer numbers that
// only the in-process path can give.
type traced struct {
	layers map[string]float64
	// primary are the latencies of the traced pass the e2e latency is
	// compared with: the hits on warm_hit, the cold solves otherwise.
	primary   []float64
	untraced  []float64
	spanSums  []float64 // per primary request, the summed top-level spans
	requests  int
	spanCount int
}

// traceRun replays part of the workload in process, through the same
// public functions the server calls, with a span around each call. It
// checks that every replayed request derives the server's content address
// and that every replayed solve marshals to the bytes the server
// returned, then replays the primary pass untraced to measure the
// tracing overhead.
func traceRun(ctx context.Context, w *workload, answers map[*request]answer, dir string, clients int) (*traced, error) {
	topos := map[string]*topology.Topology{}
	for i := range w.timed {
		p := w.timed[i].prob
		topos[p.spec] = p.topo
	}
	var solveSet, hitSet []*request
	switch w.name {
	case warmHit:
		solveSet = pointers(w.setup)
		for k := 0; k < hitRepeats; k++ {
			hitSet = append(hitSet, solveSet...)
		}
	case coldSA:
		solveSet = pointers(w.timed[:tracedColdSA])
	default:
		solveSet = pointers(w.timed[:tracedColdHLF])
	}
	for _, r := range solveSet {
		if _, ok := answers[r]; !ok {
			return nil, fmt.Errorf("traced request was never answered by the server")
		}
	}

	rec := newRecorder()
	st, err := newStack(rec, topos, filepath.Join(dir, "traced-disk"))
	if err != nil {
		return nil, err
	}
	defer st.close()
	tr := &traced{layers: map[string]float64{}}
	solved, err := st.pass(ctx, solveSet, passSolve, clients)
	if err != nil {
		return nil, err
	}
	if err := matchServer(solveSet, solved, answers, "miss"); err != nil {
		return nil, err
	}
	primary, primaryBase := solved, int64(passSolve)
	if hitSet != nil {
		hits, err := st.pass(ctx, hitSet, passHit, clients)
		if err != nil {
			return nil, err
		}
		if err := matchServer(hitSet, hits, answers, "hit"); err != nil {
			return nil, err
		}
		primary, primaryBase = hits, passHit
	}
	if err := st.references(ctx, w); err != nil {
		return nil, err
	}
	if err := st.validate(solveSet, solved); err != nil {
		return nil, err
	}
	for _, p := range primary {
		tr.primary = append(tr.primary, us(p.lat))
	}
	tr.requests = len(solved) + len(hitSet)

	// The untraced comparison replays the primary pass with no recorder:
	// the hits on the traced stack's filled tiers, the solves on a fresh
	// stack.
	var out []served
	if hitSet != nil {
		out, err = st.untraced().pass(ctx, hitSet, 0, clients)
	} else {
		var plain *stack
		if plain, err = newStack(nil, topos, filepath.Join(dir, "untraced-disk")); err != nil {
			return nil, err
		}
		defer plain.close()
		out, err = plain.pass(ctx, solveSet, 0, clients)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range out {
		tr.untraced = append(tr.untraced, us(p.lat))
	}

	allocs, err := canonAllocs(solveSet)
	if err != nil {
		return nil, err
	}
	tr.layers["taskgraph.canonicalize_allocs"] = allocs
	rec.layers(tr, primaryBase, len(primary), solveSet, solved)
	tr.spanCount = len(rec.spans)
	if err := rec.write(filepath.Join(dir, "spans-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	return tr, nil
}

func pointers(reqs []request) []*request {
	out := make([]*request, len(reqs))
	for i := range reqs {
		out[i] = &reqs[i]
	}
	return out
}

// pass answers reqs in process from clients closed-loop workers; request
// i is traced under ID base+i.
func (s *stack) pass(ctx context.Context, reqs []*request, base int64, clients int) ([]served, error) {
	out := make([]served, len(reqs))
	errs := make([]error, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				var err error
				if out[i], err = s.process(ctx, base+int64(i), reqs[i].body()); err != nil {
					errs[c] = fmt.Errorf("traced request %d: %w", i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, ctx.Err()
}

// matchServer checks that the in-process path reproduced the server: the
// same cache outcome, the same content address, and byte-identical
// bodies.
func matchServer(reqs []*request, got []served, answers map[*request]answer, wantTag string) error {
	for i, r := range reqs {
		a := answers[r]
		switch {
		case got[i].tag != wantTag:
			return fmt.Errorf("traced request %d: cache %q, want %q", i, got[i].tag, wantTag)
		case got[i].address != a.address:
			return fmt.Errorf("traced request %d: content address %s, server's %s", i, got[i].address, a.address)
		case !bytes.Equal(got[i].body, a.body):
			return fmt.Errorf("traced request %d: body differs from the server's", i)
		}
	}
	return nil
}

// references solves the quality set's distinct problems with the other
// solver (HLF for SA workloads, SA for the HLF workload), so both
// policies' layers are measured on every workload.
func (s *stack) references(ctx context.Context, w *workload) error {
	name, limit := "hlf", len(w.quality)
	if w.solver == "hlf" {
		name, limit = "sa", saReferences
	}
	seen := map[*problem]bool{}
	for i := range w.quality {
		r := &w.quality[i]
		if seen[r.prob] || len(seen) == limit {
			continue
		}
		seen[r.prob] = true
		opt := core.DefaultOptions()
		opt.Seed = r.seed
		root := s.rec.root(passReference+int64(i), spanReference)
		_, err := s.solve(ctx, root, tracedSolver{name: name, rec: s.rec, ref: true},
			solver.Request{Graph: r.prob.graph, Topo: r.prob.topo, Comm: topology.DefaultCommParams(), SA: opt})
		root.end()
		if err != nil {
			return fmt.Errorf("%s reference: %w", name, err)
		}
	}
	return nil
}

// validate runs the feasibility checker on every traced solve, one span
// each.
func (s *stack) validate(reqs []*request, got []served) error {
	for i, r := range reqs {
		var res service.Result
		if err := json.Unmarshal(got[i].body, &res); err != nil {
			return err
		}
		sched := schedule.Schedule{Policy: res.Solver, Makespan: res.Makespan, Entries: res.Schedule}
		sp := s.rec.root(passValidate+int64(i), spanValidate)
		err := sched.Validate(r.prob.graph, r.prob.topo, topology.DefaultCommParams())
		sp.end()
		if err != nil {
			return fmt.Errorf("traced request %d: %w", i, err)
		}
	}
	return nil
}

// canonAllocs counts the heap allocations of one Canonicalizer.Parse,
// reusing one canonicalizer as the server's pool does, over the distinct
// graphs of reqs.
func canonAllocs(reqs []*request) (float64, error) {
	var docs [][]byte
	seen := map[*byte]bool{}
	for _, r := range reqs {
		if g := r.prob.graphJSON; !seen[&g[0]] {
			seen[&g[0]] = true
			docs = append(docs, g)
		}
	}
	var c taskgraph.Canonicalizer
	for _, d := range docs {
		if err := c.Parse(d); err != nil {
			return 0, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := 0; k < allocRounds; k++ {
		for _, d := range docs {
			_ = c.Parse(d) // parsed without error above
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(allocRounds*len(docs)), nil
}

// layers derives the per-layer metrics from the recorded spans and solve
// statistics. Primary requests carry IDs base..base+n-1.
func (r *recorder) layers(tr *traced, base int64, n int, solveSet []*request, solved []served) {
	byName := map[string][]float64{}
	children := map[int64]int64{} // span ID -> summed duration of its children
	top := map[int64]int64{}      // primary request ID -> summed top-level spans
	roots := map[int64]int64{}    // root span ID -> request ID
	for _, s := range r.spans {
		if s.Parent == 0 {
			roots[s.ID] = s.Req
		}
	}
	var canonNS, canonBytes int64
	for _, s := range r.spans {
		byName[s.Name] = append(byName[s.Name], float64(s.Dur))
		children[s.Parent] += s.Dur
		if req, ok := roots[s.Parent]; ok && req >= base && req < base+int64(n) {
			top[req] += s.Dur
		}
		if s.Name == spanCanon && s.Req >= passSolve && s.Req < passSolve+int64(len(solveSet)) {
			canonNS += s.Dur
			canonBytes += int64(len(solveSet[s.Req-passSolve].prob.graphJSON))
		}
	}
	var queueSelf []float64
	for _, s := range r.spans {
		if s.Name == spanQueue {
			queueSelf = append(queueSelf, float64(s.Dur-children[s.ID]))
		}
	}
	for _, d := range top {
		tr.spanSums = append(tr.spanSums, float64(d)/1e3)
	}
	medUS := func(name string) float64 { return orZero(median(byName[name])) / 1e3 }
	L := tr.layers
	L["taskgraph.canonicalize_us"] = medUS(spanCanon)
	if canonNS > 0 {
		L["taskgraph.canonicalize_mb_s"] = float64(canonBytes) / 1e6 / (float64(canonNS) / 1e9)
	}
	L["taskgraph.graph_build_us"] = medUS(spanGraphBuild)
	L["service.mem_tier_us"] = medUS(spanMemTier)
	L["service.disk_tier_us"] = medUS(spanDiskTier)
	L["service.marshal_us"] = medUS(spanMarshal)
	L["engine.queue_us"] = orZero(median(queueSelf)) / 1e3
	L["solver.solve_ms"] = medUS(spanSolve) / 1e3
	L["schedule.validate_us"] = medUS(spanValidate)
	var kb []float64
	for _, s := range solved {
		kb = append(kb, float64(len(s.body))/1024)
	}
	L["service.body_kb"] = orZero(median(kb))

	var coreAssign, listAssign, simulate, epochs []float64
	var coreNS, moves, accepted, stages int64
	for _, st := range r.solves {
		if strings.HasPrefix(st.policy, "SA") {
			coreAssign = append(coreAssign, ms(st.assign))
			coreNS += int64(st.assign)
			moves += int64(st.moves)
			accepted += int64(st.accepted)
			stages += int64(st.stages)
		} else {
			listAssign = append(listAssign, ms(st.assign))
		}
		if !st.ref {
			simulate = append(simulate, ms(st.simulate))
			epochs = append(epochs, float64(st.epochs))
		}
	}
	L["core.assign_ms"] = orZero(median(coreAssign))
	if nSA := len(coreAssign); nSA > 0 {
		L["core.moves_per_solve"] = float64(moves) / float64(nSA)
		L["core.stages_per_solve"] = float64(stages) / float64(nSA)
	}
	if moves > 0 {
		L["core.ns_per_move"] = float64(coreNS) / float64(moves)
		L["core.accept_ratio"] = float64(accepted) / float64(moves)
	}
	L["list.assign_ms"] = orZero(median(listAssign))
	L["machsim.simulate_ms"] = orZero(median(simulate))
	L["machsim.epochs_per_solve"] = mean(epochs)
}

func orZero(x float64) float64 {
	if x != x { // NaN: the layer never ran
		return 0
	}
	return x
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
