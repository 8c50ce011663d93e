package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/service"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dtserve  string
	workdir  string
	clients  int
	// tailQ is the tail quantile latency_p99_ms reports (0.99); the run
	// fails unless minTail samples lie beyond it.
	tailQ float64
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run benchmarks one workload: set-ups, a warm-up, the timed phase, the
// response checks and, with cfg.trace, the traced replay. The warm-up is
// untimed load, so lazy start-up work in the server is done before the
// clock starts.
func run(ctx context.Context, cfg config) (*result, error) {
	w, err := generate(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.workdir, "run-"+w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Join(dir, "cache"))
	chk := newChecker(w)
	srv, setupDur, seeded, err := setUp(ctx, cfg, w, dir, chk)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	attempted := w.setups * len(seeded)
	answers := map[*request]answer{}
	var seedBody [][]byte // warm_hit: the validated body of each request
	if w.setup != nil {
		seedBody = make([][]byte, len(w.setup))
		for _, s := range seeded {
			seedBody[s.idx] = s.body
			answers[&w.setup[s.idx]] = answer{body: s.body, address: s.address}
		}
	}

	client := newClient(cfg.clients)
	defer client.CloseIdleConnections()
	// Warm-up, then the timed phase. The warm_hit requests cycle from the
	// head in both; a cold workload's timed phase moves on to the keys
	// after the warm-up's.
	warmReqs, timedReqs := w.timed, w.timed
	if !w.cycle {
		warmReqs, timedReqs = w.timed[:w.warmup], w.timed[w.warmup:]
	}
	warmSamples, _, err := phase(ctx, client, srv.base, warmReqs, cfg.clients, w.warmup, seedBody)
	if err != nil {
		return nil, err
	}
	st0, err := srv.stats(ctx, client)
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	timed, elapsed, err := phase(ctx, client, srv.base, timedReqs, cfg.clients, w.count, seedBody)
	if err != nil {
		return nil, err
	}
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	st1, err := srv.stats(ctx, client)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}

	// Every response is checked now, outside the timed phase.
	expected := seedBody != nil
	attempted += len(warmSamples) + len(timed)
	chk.samples(warmReqs, warmSamples, w.wantTag, expected)
	chk.samples(timedReqs, timed, w.wantTag, expected)
	if err := service.CheckLaw(st1); err != nil {
		chk.fail(err)
	}
	switch {
	case w.wantTag == "hit" && st1.Solves != st0.Solves:
		chk.fail(fmt.Errorf("%d solves in the timed phase of a warm workload", st1.Solves-st0.Solves))
	case w.wantTag == "miss" && st1.Cache.Hits != st0.Cache.Hits:
		chk.fail(fmt.Errorf("%d memory hits in the timed phase of a cold workload", st1.Cache.Hits-st0.Cache.Hits))
	}
	if !expected {
		for _, set := range []struct {
			reqs []request
			ss   []sample
		}{{warmReqs, warmSamples}, {timedReqs, timed}} {
			for _, s := range set.ss {
				answers[&set.reqs[s.idx]] = answer{body: s.body, address: s.address}
			}
		}
	}

	lat := make([]float64, 0, len(timed))
	ok := 0
	for i := range timed {
		lat = append(lat, ms(timed[i].lat))
		if timed[i].failed() == nil {
			ok++
		}
	}
	sort.Float64s(lat)
	p50 := percentile(lat, 0.5)
	p99, err := tailPercentile(lat, cfg.tailQ)
	if err != nil {
		return nil, fmt.Errorf("%s timed phase: %w", w.name, err)
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d timed requests in %.2fs, p50 %.3fms p%g %.3fms (%d samples beyond it)\n",
		w.name, cfg.seed, len(lat), elapsed.Seconds(), p50, 100*cfg.tailQ, p99, beyond(len(lat), cfg.tailQ))

	out := &result{Attempted: attempted, Metrics: map[string]value{}}
	if cfg.trace {
		tr, err := traceRun(ctx, w, answers, dir, cfg.clients)
		if err != nil {
			chk.fail(err)
		} else {
			L := tr.layers
			spanSum := median(tr.spanSums)
			L["service.http_us"] = p50*1e3 - spanSum
			L["trace.span_sum_frac"] = spanSum / (p50 * 1e3)
			L["trace.overhead_frac"] = median(tr.primary)/median(tr.untraced) - 1
			items := float64(st1.Items - st0.Items)
			L["service.mem_hit_ratio"] = float64(st1.Cache.Hits-st0.Cache.Hits) / items
			L["service.solves"] = float64(st1.Solves - st0.Solves)
			L["service.coalesced"] = float64(st1.Coalesced - st0.Coalesced)
			L["engine.shed"] = float64(st1.Shed - st0.Shed)
			L["engine.expired"] = float64(expired(st1) - expired(st0))
			for _, m := range perLayer {
				out.Metrics[m.name] = value{Value: L[m.name], Unit: m.unit}
			}
			fmt.Fprintf(os.Stderr, "%s traced: %d requests, %d spans; layer spans sum to %.1fus of the %.1fus e2e median\n",
				w.name, tr.requests, tr.spanCount, spanSum, p50*1e3)
		}
	} else {
		vsLB, vsHLF, err := chk.quality(ctx)
		if err != nil {
			chk.fail(err)
		}
		e2e := map[string]float64{
			"setup_s":               median(setupDur),
			"throughput_rps":        float64(ok) / elapsed.Seconds(),
			"latency_p50_ms":        p50,
			"latency_p99_ms":        p99,
			"success_frac":          1 - float64(chk.failed)/float64(attempted),
			"server_cpu_ms_per_req": ms(cpu1-cpu0) / float64(len(timed)),
			"server_peak_rss_mb":    float64(rss) / (1 << 20),
			"makespan_vs_lb":        vsLB,
			"makespan_vs_hlf":       vsHLF,
		}
		for _, m := range endToEnd {
			out.Metrics[m.name] = value{Value: e2e[m.name], Unit: m.unit}
		}
	}
	for _, err := range chk.errs {
		fmt.Fprintln(os.Stderr, "check failed:", err)
	}
	out.Failed = chk.failed
	out.Correct = chk.failed == 0
	return out, nil
}

// setUp starts w.setups fresh servers one after another, stopping each
// before the next, and returns the last with every set-up's duration. On
// warm_hit each set-up solves the whole distinct set; the set-ups' answers
// are checked and must be byte-identical, and the last one's are returned.
func setUp(ctx context.Context, cfg config, w *workload, dir string, chk *checker) (*server, []float64, []sample, error) {
	var (
		srv   *server
		durs  []float64
		prev  []sample
		err   error
		cache = filepath.Join(dir, "cache")
	)
	for i := 0; i < w.setups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, nil, nil, err
			}
		}
		t0 := time.Now()
		if srv, err = startServer(cfg.dtserve, cache); err != nil {
			return nil, nil, nil, err
		}
		var seeded []sample
		if w.setup != nil {
			client := newClient(cfg.clients)
			seeded, _, err = phase(ctx, client, srv.base, w.setup, cfg.clients, len(w.setup), nil)
			client.CloseIdleConnections()
			if err != nil {
				srv.stop()
				return nil, nil, nil, err
			}
		}
		durs = append(durs, time.Since(t0).Seconds())
		chk.samples(w.setup, seeded, "miss", false)
		sort.Slice(seeded, func(a, b int) bool { return seeded[a].idx < seeded[b].idx })
		for k := range prev {
			if k >= len(seeded) || !bytes.Equal(seeded[k].body, prev[k].body) {
				chk.fail(fmt.Errorf("set-up %d answered request %d differently from the first", i, k))
				break
			}
		}
		prev = seeded
	}
	return srv, durs, prev, nil
}

func expired(st service.Stats) uint64 {
	var n uint64
	for _, l := range st.Pool.Lanes {
		n += l.Expired
	}
	return n
}
