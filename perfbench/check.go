package main

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/solver"
	"repro/internal/topology"
)

// lbSlack absorbs float rounding when comparing a makespan with its
// lower bound.
const lbSlack = 1e-9

// checkBody decodes one response body into the wire Result and checks it
// against the request: the schedule must pass the independent feasibility
// checker for the request's graph, machine and communication parameters,
// and its makespan must reach the lower bound.
func checkBody(r *request, body []byte) (*service.Result, error) {
	var res service.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	p := r.prob
	if res.Topology != p.topo.Name() {
		return nil, fmt.Errorf("result for topology %q, want %q", res.Topology, p.topo.Name())
	}
	sched := schedule.Schedule{Policy: res.Solver, Makespan: res.Makespan, Entries: res.Schedule}
	if err := sched.Validate(p.graph, p.topo, topology.DefaultCommParams()); err != nil {
		return nil, err
	}
	if res.Makespan < p.lb*(1-lbSlack) {
		return nil, fmt.Errorf("makespan %g below the lower bound %g", res.Makespan, p.lb)
	}
	return &res, nil
}

// checker validates every response of a run and collects the makespans
// of the quality set. A failed check is counted, and the first few are
// kept for the report.
type checker struct {
	w         *workload
	failed    int
	errs      []error
	makespans map[*request]float64 // served makespan of each validated body
}

func newChecker(w *workload) *checker {
	return &checker{w: w, makespans: map[*request]float64{}}
}

func (c *checker) fail(err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err)
	}
}

// samples checks the responses of one phase over reqs. Each must be a 200
// with the wanted cache tag; a body recorded without its bytes matched an
// already validated body, any other body is validated here.
func (c *checker) samples(reqs []request, ss []sample, wantTag string, expected bool) {
	for i := range ss {
		s := &ss[i]
		r := &reqs[s.idx]
		if err := s.failed(); err != nil {
			c.fail(fmt.Errorf("request %d: %w", s.idx, err))
			continue
		}
		if s.tag != wantTag {
			c.fail(fmt.Errorf("request %d: X-DTServe-Cache %q, want %q", s.idx, s.tag, wantTag))
			continue
		}
		if s.body == nil {
			continue
		}
		if expected {
			c.fail(fmt.Errorf("request %d: %w", s.idx, errMismatch))
			continue
		}
		res, err := checkBody(r, s.body)
		if err != nil {
			c.fail(fmt.Errorf("request %d: %w", s.idx, err))
			continue
		}
		c.makespans[r] = res.Makespan
	}
}

// quality returns the mean ratio of the served makespan to the lower
// bound, and to an in-process HLF solve of the same graph and machine,
// over the workload's fixed quality set.
func (c *checker) quality(ctx context.Context) (vsLB, vsHLF float64, err error) {
	hlf := map[*problem]float64{}
	for i := range c.w.quality {
		r := &c.w.quality[i]
		m, ok := c.makespans[r]
		if !ok {
			return 0, 0, fmt.Errorf("quality request %d was not answered", i)
		}
		ref, ok := hlf[r.prob]
		if !ok {
			res, err := solver.Solve(ctx, "hlf", solver.Request{Graph: r.prob.graph, Topo: r.prob.topo,
				Comm: topology.DefaultCommParams()})
			if err != nil {
				return 0, 0, fmt.Errorf("hlf reference: %w", err)
			}
			ref = res.Makespan
			hlf[r.prob] = ref
		}
		vsLB += m / r.prob.lb
		vsHLF += m / ref
	}
	n := float64(len(c.w.quality))
	return vsLB / n, vsHLF / n, nil
}
