package main

import "testing"

// heldOutSeed is the seed later changes must also pass on, beside the
// seeds they were tuned with.
const heldOutSeed = 2

func TestGenerateDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 1 generated two different payload sets", name)
		}
		c, err := generate(name, heldOutSeed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 1 and %d generated the same payload set", name, heldOutSeed)
		}
	}
}

// TestWorkloadShape pins what each workload's reason relies on.
func TestWorkloadShape(t *testing.T) {
	for _, name := range workloadNames {
		w, err := generate(name, heldOutSeed, 2)
		if err != nil {
			t.Fatal(err)
		}
		seeds := map[int64]bool{}
		for i := range w.timed {
			if seeds[w.timed[i].seed] {
				t.Fatalf("%s: seed %d repeats, so two requests share a cache key", name, w.timed[i].seed)
			}
			seeds[w.timed[i].seed] = true
		}
		minSize, maxSize, minTasks, maxTasks := 1<<30, 0, 1<<30, 0
		for i := range w.timed[:min(len(w.timed), 1000)] {
			r := &w.timed[i]
			minSize, maxSize = min(minSize, r.size()), max(maxSize, r.size())
			n := r.prob.graph.NumTasks()
			minTasks, maxTasks = min(minTasks, n), max(maxTasks, n)
		}
		// The warm-up sends one second's worth of requests, the timed phase
		// seconds times as many, however fast the server answers.
		if w.warmup < 1 || w.count != 2*w.warmup {
			t.Errorf("%s: %d warm-up and %d timed requests for 2 seconds", name, w.warmup, w.count)
		}
		t.Logf("%s: %d requests, payloads %d..%d bytes, %d..%d tasks", name, len(w.timed), minSize, maxSize, minTasks, maxTasks)
		switch name {
		case warmHit:
			if len(w.setup) != warmDistinct || !w.cycle || minTasks < 15 || maxTasks > 1000 {
				t.Errorf("warm_hit: %d distinct, cycle %v, %d..%d tasks", len(w.setup), w.cycle, minTasks, maxTasks)
			}
		case coldSA:
			if w.cycle || maxSize > 16<<10 || len(w.timed) != w.warmup+w.count {
				t.Errorf("cold_sa: cycle %v, payloads up to %d bytes, pool %d", w.cycle, maxSize, len(w.timed))
			}
		case coldHLFLarge:
			if w.cycle || len(w.timed) != w.warmup+w.count || minTasks < 600 || maxTasks > 1400 || minSize < 100<<10 || maxSize > 400<<10 {
				t.Errorf("cold_hlf_large: cycle %v, pool %d, %d..%d tasks, %d..%d bytes",
					w.cycle, len(w.timed), minTasks, maxTasks, minSize, maxSize)
			}
		}
	}
}
