package service

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/engine"
	"repro/internal/ingest"
)

// DeltaRequest is the wire form of POST /v1/schedule/delta: online
// rescheduling against a previously answered solve. Base is the content
// address of the original (the X-DTServe-Address header of its
// response); Edits is the change list the server applies to the cached
// canonical graph. The edited problem inherits every option of the base
// — topology, communication parameters, solver, seed, weights, restarts
// — so the delta solves exactly "the same request with an edited graph".
//
// By default the solve warm-starts from the base's cached assignment
// (that is the point of naming a base); NoWarm disables seeding, in
// which case the response is byte-identical to a cold /v1/schedule call
// with the edited graph.
type DeltaRequest struct {
	Base  string      `json:"base"`
	Edits []DeltaEdit `json:"edits"`
	// NoWarm solves the edited graph cold (parity mode).
	NoWarm bool `json:"nowarm,omitempty"`
	// TimeoutMS overrides the base's solve budget; 0 inherits it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Lane, NoCache and Trace behave exactly as on ScheduleRequest.
	Lane    string `json:"lane,omitempty"`
	NoCache bool   `json:"nocache,omitempty"`
	Trace   bool   `json:"trace,omitempty"`
}

// DeltaEdit is one graph edit. Op selects the field set:
//
//	add_task  {task, name?, load}   append task (IDs stay dense)
//	set_load  {task, load}          change a task's load
//	add_edge  {from, to, bits}      add a dependency (volumes merge)
//	set_edge  {from, to, bits}      set an existing dependency's volume
//	del_edge  {from, to}            remove a dependency
//
// Task deletion is deliberately absent: it would renumber the dense ID
// space and break the assignment projection that makes deltas cheap.
type DeltaEdit struct {
	Op   string   `json:"op"`
	Task int      `json:"task,omitempty"`
	Name string   `json:"name,omitempty"`
	Load *float64 `json:"load,omitempty"`
	From int      `json:"from,omitempty"`
	To   int      `json:"to,omitempty"`
	Bits *float64 `json:"bits,omitempty"`
}

// deltaGraph mirrors the canonical graph JSON for server-side editing.
type deltaGraph struct {
	Name  string      `json:"name"`
	Tasks []deltaTask `json:"tasks"`
	Edges []deltaEdge `json:"edges"`
}

type deltaTask struct {
	ID   int     `json:"id"`
	Name string  `json:"name,omitempty"`
	Load float64 `json:"load"`
}

type deltaEdge struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Bits float64 `json:"bits"`
}

// apply mutates the graph document by one edit.
func (g *deltaGraph) apply(e DeltaEdit) error {
	switch e.Op {
	case "add_task":
		if e.Task != len(g.Tasks) {
			return badRequest("add_task: task id %d must be the next dense id %d", e.Task, len(g.Tasks))
		}
		load := 0.0
		if e.Load != nil {
			load = *e.Load
		}
		g.Tasks = append(g.Tasks, deltaTask{ID: e.Task, Name: e.Name, Load: load})
		return nil
	case "set_load":
		if e.Task < 0 || e.Task >= len(g.Tasks) {
			return badRequest("set_load: no task %d", e.Task)
		}
		if e.Load == nil {
			return badRequest("set_load: missing load")
		}
		g.Tasks[e.Task].Load = *e.Load
		return nil
	case "add_edge":
		if e.Bits == nil {
			return badRequest("add_edge: missing bits")
		}
		if err := g.checkEndpoints(e.From, e.To); err != nil {
			return err
		}
		g.Edges = append(g.Edges, deltaEdge{From: e.From, To: e.To, Bits: *e.Bits})
		return nil
	case "set_edge":
		if e.Bits == nil {
			return badRequest("set_edge: missing bits")
		}
		for i := range g.Edges {
			if g.Edges[i].From == e.From && g.Edges[i].To == e.To {
				g.Edges[i].Bits = *e.Bits
				return nil
			}
		}
		return badRequest("set_edge: no edge %d->%d", e.From, e.To)
	case "del_edge":
		for i := range g.Edges {
			if g.Edges[i].From == e.From && g.Edges[i].To == e.To {
				g.Edges = append(g.Edges[:i], g.Edges[i+1:]...)
				return nil
			}
		}
		return badRequest("del_edge: no edge %d->%d", e.From, e.To)
	default:
		return badRequest("unknown edit op %q (want add_task, set_load, add_edge, set_edge or del_edge)", e.Op)
	}
}

func (g *deltaGraph) checkEndpoints(from, to int) error {
	if from < 0 || from >= len(g.Tasks) || to < 0 || to >= len(g.Tasks) {
		return badRequest("edge %d->%d references a missing task", from, to)
	}
	return nil
}

// handleDelta answers POST /v1/schedule/delta: resolve the base from the
// similarity index, apply the edit list to its canonical graph, rebuild
// the base's request around the edited graph, and run it through the
// exact same process pipeline as /v1/schedule — cache tiers,
// singleflight, accounting and all. Only the seeding differs: unless
// NoWarm is set, the solve warm-starts from the base's own assignment.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if s.draining.Load() {
		writeError(w, errDraining())
		return
	}
	var dreq DeltaRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, ingest.MaxBodyBytes)).Decode(&dreq); err != nil {
		writeError(w, badRequest("decode delta request: %v", err))
		return
	}
	if dreq.Base == "" {
		writeError(w, badRequest("missing base address"))
		return
	}
	ent, ok := s.sim.Get(dreq.Base)
	if !ok {
		writeError(w, &httpError{status: http.StatusNotFound,
			msg: "service: unknown base address (not indexed, or evicted)"})
		return
	}
	var doc deltaGraph
	if err := json.Unmarshal(ent.Graph, &doc); err != nil {
		writeError(w, &httpError{status: http.StatusInternalServerError,
			msg: "service: corrupt indexed graph: " + err.Error()})
		return
	}
	for i, e := range dreq.Edits {
		if err := doc.apply(e); err != nil {
			writeError(w, badRequest("edit %d: %v", i, err))
			return
		}
	}
	edited, err := json.Marshal(doc)
	if err != nil {
		writeError(w, &httpError{status: http.StatusInternalServerError, msg: err.Error()})
		return
	}

	// Rebuild the base's request around the edited graph. The full
	// CommOverride pins every communication parameter to the base's
	// resolved values, so defaults drifting between releases can never
	// make a delta diverge from its base's option block.
	opt := ent.Opt
	wb := opt.Wb
	timeoutMS := opt.Timeout
	if dreq.TimeoutMS != 0 {
		timeoutMS = dreq.TimeoutMS
	}
	req := ingest.Get()
	defer req.Release()
	req.SetGraph(edited)
	req.Topo = ent.Spec
	req.Comm = &ingest.CommOverride{
		Bandwidth: &opt.Comm.Bandwidth,
		Sigma:     &opt.Comm.Sigma,
		Tau:       &opt.Comm.Tau,
		Scale:     &opt.Comm.Scale,
	}
	req.Solver = opt.Solver
	req.Seed = opt.Seed
	req.Wb = &wb
	req.Restarts = opt.Restarts
	req.Cooperative = opt.Cooperative
	req.Tempering = opt.Tempering
	req.TimeoutMS = timeoutMS
	req.MemberTimeoutMS = opt.MemberTimeout
	req.Lane = dreq.Lane
	req.NoCache = dreq.NoCache
	req.Trace = dreq.Trace

	sw, _ := w.(*statusWriter)
	explicit := wantsTrace(req, r)
	ctx, tr := s.startTrace(r.Context(), sw, t0, explicit)
	if sw == nil && tr != nil {
		defer func() { s.finishTrace(tr, time.Since(t0)) }()
	}
	meta := &procMeta{warmBase: dreq.Base, noWarm: dreq.NoWarm}
	if dreq.NoWarm {
		meta.warmBase = ""
	}
	body, status, err := s.process(ctx, req, engine.LaneInteractive, meta)
	if sw != nil {
		sw.lane = laneName(req.Lane, engine.LaneInteractive)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	s.account(status)
	tr.Annotate("cache", status)
	tr.Annotate("delta_base", dreq.Base)
	if tr != nil && explicit {
		body = appendTraceBody(body, tr.Snapshot(time.Since(t0)))
	}
	writeResult(w, body, status, meta)
}
