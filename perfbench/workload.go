package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/cliutil"
	"repro/internal/programs"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	warmHit      = "warm_hit"
	coldSA       = "cold_sa"
	coldHLFLarge = "cold_hlf_large"
)

var workloadNames = []string{warmHit, coldSA, coldHLFLarge}

// The paper's three machines (Table 2) and the two larger machines the
// large-graph workload schedules onto.
var (
	paperMachines = []string{"bus:8", "hypercube:3", "ring:9"}
	largeMachines = []string{"hypercube:4", "mesh:4x4"}
)

const (
	// warmDistinct is the number of distinct warm_hit requests: the 12
	// paper cells plus seeded layered DAGs.
	warmDistinct = 240
	// warmRate, coldSARate and coldHLFRate are the requests a run sends
	// per second of --seconds: about the throughput of each workload on a
	// 2-vCPU x86 host when the benchmark was defined. A run sends this
	// many requests as its warm-up and seconds times as many in its timed
	// phase, whatever the server's speed, so it always ends with the same
	// cached state and a faster server shows as a shorter timed phase.
	warmRate    = 720
	coldSARate  = 165
	coldHLFRate = 62
	// warmSetups and coldSetups are how often a run starts a fresh
	// server; setup_s is the median. A warm_hit set-up also solves the
	// whole distinct set, so it takes seconds; a cold one takes
	// milliseconds, and more of them steady the median.
	warmSetups = 5
	coldSetups = 15
	// qualitySA and qualityHLF are the sizes of the fixed request prefixes
	// the cold workloads' quality metrics cover.
	qualitySA  = 48
	qualityHLF = 48
	// largeGraphs is the number of distinct cold_hlf_large DAGs, each
	// scheduled on both large machines.
	largeGraphs = 24
)

// problem is one graph on one machine. The graph's wire JSON is shared by
// every request for the problem.
type problem struct {
	graphJSON []byte
	graph     *taskgraph.Graph
	spec      string
	topo      *topology.Topology
	lb        float64 // Graph.LowerBoundMakespan on topo's processors
}

// request is one pre-generated request body:
// bodyHead + problem.graphJSON + tail.
type request struct {
	prob *problem
	seed int64
	tail []byte
}

const bodyHead = `{"graph":`

func (r *request) size() int { return len(bodyHead) + len(r.prob.graphJSON) + len(r.tail) }

// body materializes the request's payload.
func (r *request) body() []byte {
	b := make([]byte, 0, r.size())
	b = append(b, bodyHead...)
	b = append(b, r.prob.graphJSON...)
	return append(b, r.tail...)
}

// workload is the generated input of one run.
type workload struct {
	name   string
	solver string
	// setup are the requests solved before the clock starts (warm_hit).
	setup []request
	// timed is the request sequence of the warm-up and timed phases: the
	// clients take requests in order. When cycle is set both phases start
	// at its head and wrap around; otherwise it holds warmup+count
	// distinct requests, the warm-up's first.
	timed []request
	cycle bool
	// warmup and count are the numbers of requests the warm-up and the
	// timed phase send.
	warmup, count int
	// setups is how often a run starts a fresh server.
	setups int
	// quality is the fixed request set the quality metrics cover.
	quality []request
	// wantTag is the X-DTServe-Cache tag every timed response must carry.
	wantTag string
}

// generate builds a workload's inputs from seed. The same name, seed and
// seconds give a byte-identical payload set; seconds sets the timed
// phase's request count.
func generate(name string, seed int64, seconds int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case warmHit:
		probs, err := paperProblems()
		if err != nil {
			return nil, err
		}
		// Sizes log-uniform from about 30 to about 800 tasks.
		k := warmDistinct - len(probs)
		l := ladders(rng, k, [2]float64{0, 1}, [2]float64{6, 20}, [2]float64{1.5, 4})
		for i := 0; i < k; i++ {
			n := int(math.Round(30 * math.Pow(800.0/30, l[0][i])))
			p, err := layeredProblem(rng, len(probs), n, int(l[1][i]), l[2][i],
				paperMachines[i%len(paperMachines)])
			if err != nil {
				return nil, err
			}
			probs = append(probs, p)
		}
		reqs := distinctRequests(rng, probs, len(probs), "sa")
		return &workload{name: name, solver: "sa", setup: reqs, timed: reqs, cycle: true,
			warmup: warmRate, count: warmRate * seconds, setups: warmSetups,
			quality: reqs, wantTag: "hit"}, nil
	case coldSA:
		probs, err := paperProblems()
		if err != nil {
			return nil, err
		}
		reqs := distinctRequests(rng, probs, coldSARate*(1+seconds), "sa")
		return &workload{name: name, solver: "sa", timed: reqs,
			warmup: coldSARate, count: coldSARate * seconds, setups: coldSetups,
			quality: reqs[:qualitySA], wantTag: "miss"}, nil
	case coldHLFLarge:
		// 700 to 1300 tasks, widths 16 to 32 and expected in-degrees 2.5 to
		// 4.5 keep the payloads between about 115 KB and 330 KB. The narrow
		// band keeps the latency tail about contention rather than about
		// one outsized graph.
		l := ladders(rng, largeGraphs, [2]float64{700, 1300}, [2]float64{16, 32}, [2]float64{2.5, 4.5})
		var probs []*problem
		for i := 0; i < largeGraphs; i++ {
			base, err := layeredProblem(rng, i, int(l[0][i]), int(l[1][i]), l[2][i], largeMachines[0])
			if err != nil {
				return nil, err
			}
			probs = append(probs, base)
			for _, spec := range largeMachines[1:] {
				p, err := onMachine(base, spec)
				if err != nil {
					return nil, err
				}
				probs = append(probs, p)
			}
		}
		reqs := distinctRequests(rng, probs, coldHLFRate*(1+seconds), "hlf")
		return &workload{name: name, solver: "hlf", timed: reqs,
			warmup: coldHLFRate, count: coldHLFRate * seconds, setups: coldSetups,
			quality: reqs[:qualityHLF], wantTag: "miss"}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// paperProblems returns the paper's four programs on its three machines.
func paperProblems() ([]*problem, error) {
	var probs []*problem
	for _, prog := range programs.Catalog() {
		g := prog.Build()
		for _, spec := range paperMachines {
			p, err := newProblem(g, spec)
			if err != nil {
				return nil, err
			}
			probs = append(probs, p)
		}
	}
	return probs, nil
}

// ladders returns, for each [lo, hi) range, n values stratified over it:
// value k is one uniform draw from the k-th of n equal slices of its
// range, with the slices dealt out in one random order shared by all
// ranges. Stratifying keeps the mix's cost the same for every seed, and
// the shared order keeps the largest graphs the densest ones.
func ladders(rng *rand.Rand, n int, ranges ...[2]float64) [][]float64 {
	out := make([][]float64, len(ranges))
	perm := rng.Perm(n)
	for j, r := range ranges {
		out[j] = make([]float64, n)
		for i, k := range perm {
			out[j][i] = r[0] + (r[1]-r[0])*(float64(k)+rng.Float64())/float64(n)
		}
	}
	return out
}

// layeredProblem draws a layered DAG of n tasks in layers of w tasks
// (the last may be short), where the tasks after the first layer draw
// deg predecessors each from the layer before, on average: the task and
// edge counts, and so the payload size, depend only on n, w and deg, and
// the seed picks the loads, volumes and which tasks connect.
func layeredProblem(rng *rand.Rand, idx, n, w int, deg float64, spec string) (*problem, error) {
	g := taskgraph.New("dag" + strconv.Itoa(idx))
	var prev, cur []taskgraph.TaskID
	owed := 0.0 // fractional predecessors carried to the next task
	for t := 0; t < n; t++ {
		if t%w == 0 {
			prev, cur = cur, nil
		}
		id := g.AddTask("T"+strconv.Itoa(t), 10+140*rng.Float64())
		cur = append(cur, id)
		if prev == nil {
			continue
		}
		owed += deg
		d := min(max(int(owed), 1), len(prev))
		owed -= float64(d)
		for _, k := range rng.Perm(len(prev))[:d] {
			if err := g.AddEdge(prev[k], id, 20+80*rng.Float64()); err != nil {
				return nil, err
			}
		}
	}
	return newProblem(g, spec)
}

// newProblem encodes g for the wire. The problem keeps the graph decoded
// from that encoding, as the server builds it: the order of its
// adjacency lists, and so every tie an HLF or SA run breaks, is the
// server's.
func newProblem(g *taskgraph.Graph, spec string) (*problem, error) {
	data, err := json.Marshal(g)
	if err != nil {
		return nil, err
	}
	p := &problem{graphJSON: data, graph: new(taskgraph.Graph)}
	if err := json.Unmarshal(data, p.graph); err != nil {
		return nil, err
	}
	return onMachine(p, spec)
}

// onMachine returns p's graph on another machine, sharing the graph JSON.
func onMachine(p *problem, spec string) (*problem, error) {
	topo, err := cliutil.ParseTopology(spec)
	if err != nil {
		return nil, err
	}
	lb, err := p.graph.LowerBoundMakespan(topo.N())
	if err != nil {
		return nil, err
	}
	return &problem{graphJSON: p.graphJSON, graph: p.graph, spec: spec, topo: topo, lb: lb}, nil
}

// distinctRequests returns n requests cycling over probs, each with its
// own seed, so every request is a distinct cache key.
func distinctRequests(rng *rand.Rand, probs []*problem, n int, solverName string) []request {
	base := rng.Int63n(1 << 40)
	reqs := make([]request, n)
	for k := range reqs {
		p := probs[k%len(probs)]
		seed := base + int64(k) + 1
		tail := fmt.Sprintf(`,"topo":%q,"solver":%q,"seed":%d}`, p.spec, solverName, seed)
		reqs[k] = request{prob: p, seed: seed, tail: []byte(tail)}
	}
	return reqs
}

// digest hashes the workload's payload set in order: equal digests mean
// byte-identical payload sets. Each shared graph document is hashed once,
// where it first appears; every request then contributes its graph's
// index and its own tail.
func (w *workload) digest() [32]byte {
	h := sha256.New()
	index := map[*byte]int{}
	for _, set := range [][]request{w.setup, w.timed} {
		for i := range set {
			g := set[i].prob.graphJSON
			k, ok := index[&g[0]]
			if !ok {
				k = len(index)
				index[&g[0]] = k
				h.Write(g)
			}
			fmt.Fprintf(h, "|%d|%s\n", k, set[i].tail)
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}
