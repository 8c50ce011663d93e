package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/ingest"
	"repro/internal/obs"
)

// Config tunes a Proxy. Replicas is required; everything else has a
// production default.
type Config struct {
	// Replicas are the dtserve base URLs (e.g. "http://127.0.0.1:8080"),
	// in fleet order. The list is fixed for the proxy's lifetime; health
	// ejection/readmission varies routing within it.
	Replicas []string
	// VNodes is the consistent-hash points per replica; <= 0 means 128.
	VNodes int
	// HealthInterval is the probe period; <= 0 means 250ms.
	HealthInterval time.Duration
	// HealthTimeout bounds one probe; <= 0 means 1s.
	HealthTimeout time.Duration
	// FailAfter ejects a replica after this many consecutive failed
	// probes; <= 0 means 2. (Requests also count: any transport error on
	// a forward marks a probe-equivalent failure immediately.)
	FailAfter int
	// ReadmitAfter readmits an ejected replica after this many
	// consecutive successful probes; <= 0 means 2.
	ReadmitAfter int
	// HedgeDelay controls interactive-lane request hedging:
	//   > 0 — hedge to the next ring replica after this fixed delay;
	//   = 0 — derive the delay from the proxy's own observed p99
	//         (armed only once HedgeMinSamples responses are in, so a
	//         cold fleet never hedges on noise);
	//   < 0 — hedging disabled.
	HedgeDelay time.Duration
	// HedgeMinSamples gates auto hedging; <= 0 means 50.
	HedgeMinSamples int
	// HedgeMin/HedgeMax clamp the auto-derived delay; defaults 2ms / 2s.
	HedgeMin time.Duration
	HedgeMax time.Duration
	// RequestTimeout bounds one forwarded attempt; <= 0 means 120s
	// (solves are allowed to be slow; the client's own deadline usually
	// governs).
	RequestTimeout time.Duration
	// TraceSample records one routed request in every TraceSample to the
	// /debug/requests ring (0 disables sampling; ?trace=1 still works on
	// the replica, which owns body traces).
	TraceSample int
	// Logger receives structured routing/health logs; nil discards.
	Logger *slog.Logger
}

// Stats is the /statsz payload of dtproxy.
type Stats struct {
	Requests     uint64 `json:"requests"`
	BadRequests  uint64 `json:"bad_requests"`
	Unrouted     uint64 `json:"unrouted"` // no healthy replica answered: 502/503
	Reroutes     uint64 `json:"reroutes"` // transport failures retried on the next ring replica
	Hedges       uint64 `json:"hedges"`
	HedgeWins    uint64 `json:"hedge_wins"`
	Ejections    uint64 `json:"ejections"`
	Readmissions uint64 `json:"readmissions"`
	// HedgeDelayNS is the hedge delay currently in force: the fixed
	// configured value, the auto-derived p99 clamp, or 0 while auto
	// hedging is still unarmed (or hedging is disabled).
	HedgeDelayNS int64             `json:"hedge_delay_ns"`
	Routed       map[string]uint64 `json:"routed"`
	Healthy      map[string]bool   `json:"healthy"`
}

// replica is one fleet member's routing state. The health fields are
// owned by the probe loop plus forward-failure reports, under p.mu.
type replica struct {
	name    string // base URL, also the metrics label
	healthy bool
	fails   int // consecutive failed probes (or forward transport errors)
	oks     int // consecutive successful probes while ejected
	routed  uint64
}

// Proxy is the routing front. Create with New, expose with Handler, stop
// with Close.
type Proxy struct {
	cfg      Config
	ring     *Ring
	client   *http.Client
	latency  *obs.Histogram // end-to-end proxied interactive latency: the p99 source
	stageLat map[string]*obs.Histogram
	sampler  obs.Sampler
	ringBuf  *obs.Ring
	done     chan struct{}
	wg       sync.WaitGroup

	mu       sync.Mutex
	replicas []*replica
	stats    Stats
	rr       int // round-robin cursor for fingerprint-less requests
}

// New validates cfg, builds the ring and starts the health prober.
// Replicas start healthy (optimistic) and the first probe round corrects
// that within HealthInterval.
func New(cfg Config) (*Proxy, error) {
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 250 * time.Millisecond
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 2
	}
	if cfg.ReadmitAfter <= 0 {
		cfg.ReadmitAfter = 2
	}
	if cfg.HedgeMinSamples <= 0 {
		cfg.HedgeMinSamples = 50
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = 2 * time.Millisecond
	}
	if cfg.HedgeMax <= 0 {
		cfg.HedgeMax = 2 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 120 * time.Second
	}
	for i, r := range cfg.Replicas {
		cfg.Replicas[i] = strings.TrimRight(r, "/")
	}
	ring, err := NewRing(cfg.Replicas, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:  cfg,
		ring: ring,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}},
		latency:  obs.NewHistogram(obs.LatencyBuckets),
		stageLat: make(map[string]*obs.Histogram, len(obs.ProxyStages)),
		ringBuf:  obs.NewRing(0, 0),
		done:     make(chan struct{}),
	}
	for _, st := range obs.ProxyStages {
		p.stageLat[st] = obs.NewHistogram(obs.QueueBuckets)
	}
	p.sampler.SetEvery(cfg.TraceSample)
	p.replicas = make([]*replica, len(cfg.Replicas))
	for i, name := range cfg.Replicas {
		p.replicas[i] = &replica{name: name, healthy: true}
	}
	p.wg.Add(1)
	go p.healthLoop()
	return p, nil
}

// Close stops the health prober and drops idle upstream connections.
// In-flight forwards finish on their own contexts.
func (p *Proxy) Close() {
	close(p.done)
	p.wg.Wait()
	p.client.CloseIdleConnections()
}

// Handler returns the proxy's HTTP handler: its own health/stats/metrics
// endpoints plus the routing front for everything else.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	mux.HandleFunc("GET /statsz", p.handleStatsz)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	mux.HandleFunc("GET /debug/requests", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, p.ringBuf.Snapshot())
	})
	mux.HandleFunc("/", p.route)
	return mux
}

// Stats snapshots the proxy counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Routed = make(map[string]uint64, len(p.replicas))
	st.Healthy = make(map[string]bool, len(p.replicas))
	for _, rep := range p.replicas {
		st.Routed[rep.name] = rep.routed
		st.Healthy[rep.name] = rep.healthy
	}
	st.HedgeDelayNS = int64(p.hedgeDelayLocked())
	return st
}

// hedgeDelayLocked resolves the hedge delay in force; 0 means "do not
// hedge right now". Callers hold p.mu or tolerate a stale read.
func (p *Proxy) hedgeDelayLocked() time.Duration {
	if p.cfg.HedgeDelay < 0 {
		return 0
	}
	if p.cfg.HedgeDelay > 0 {
		return p.cfg.HedgeDelay
	}
	snap := p.latency.Snapshot()
	if snap.Count < uint64(p.cfg.HedgeMinSamples) {
		return 0
	}
	d := histQuantile(snap, 0.99)
	if d < p.cfg.HedgeMin {
		d = p.cfg.HedgeMin
	}
	if d > p.cfg.HedgeMax {
		d = p.cfg.HedgeMax
	}
	return d
}

// histQuantile interpolates quantile q from a cumulative histogram
// snapshot, prometheus histogram_quantile style: linear within the
// bucket holding the rank, the last finite bound for the +Inf bucket.
func histQuantile(s obs.HistSnapshot, q float64) time.Duration {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var prevCum uint64
	lower := 0.0
	for i, ub := range s.Bounds {
		cum := s.Cum[i]
		if float64(cum) >= rank {
			span := float64(cum - prevCum)
			frac := 1.0
			if span > 0 {
				frac = (rank - float64(prevCum)) / span
			}
			return time.Duration((lower + (ub-lower)*frac) * float64(time.Second))
		}
		prevCum = cum
		lower = ub
	}
	return time.Duration(s.Bounds[len(s.Bounds)-1] * float64(time.Second))
}

// healthLoop probes every replica each interval, ejecting after
// FailAfter consecutive failures and readmitting after ReadmitAfter
// consecutive successes. A draining dtserve fails its own /healthz, so
// drains eject cleanly without a timeout.
func (p *Proxy) healthLoop() {
	defer p.wg.Done()
	tick := time.NewTicker(p.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-tick.C:
		}
		var wg sync.WaitGroup
		for _, rep := range p.replicas {
			wg.Add(1)
			go func(rep *replica) {
				defer wg.Done()
				p.report(rep, p.probe(rep), true)
			}(rep)
		}
		wg.Wait()
	}
}

func (p *Proxy) probe(rep *replica) bool {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.name+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// report folds one health observation (a probe, or fromProbe=false for a
// forward-attempt transport result) into the replica's streaks and
// applies the ejection/readmission transitions.
func (p *Proxy) report(rep *replica, ok, fromProbe bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ok {
		rep.fails = 0
		if !rep.healthy {
			// Only probes readmit: one lucky forwarded request through a
			// flapping replica should not beat the probe streak.
			if fromProbe {
				rep.oks++
				if rep.oks >= p.cfg.ReadmitAfter {
					rep.healthy = true
					rep.oks = 0
					p.stats.Readmissions++
					if p.cfg.Logger != nil {
						p.cfg.Logger.Info("proxy readmit", "replica", rep.name)
					}
				}
			}
		}
		return
	}
	rep.oks = 0
	rep.fails++
	if rep.healthy && rep.fails >= p.cfg.FailAfter {
		rep.healthy = false
		p.stats.Ejections++
		if p.cfg.Logger != nil {
			p.cfg.Logger.Warn("proxy eject", "replica", rep.name, "fails", rep.fails)
		}
	}
}

// candidates returns the healthy replicas in ring-preference order for
// key hash h — buf[0] is the key's owner among the healthy set, the rest
// are its fallback/hedge targets. With no fingerprint (hasKey false) the
// order is a round-robin rotation of the healthy set instead.
func (p *Proxy) candidates(h uint64, hasKey bool) []*replica {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*replica, 0, len(p.replicas))
	if hasKey {
		seq := p.ring.Sequence(h, make([]int, 0, len(p.replicas)), len(p.replicas))
		for _, idx := range seq {
			if p.replicas[idx].healthy {
				out = append(out, p.replicas[idx])
			}
		}
		return out
	}
	p.rr++
	for i := 0; i < len(p.replicas); i++ {
		rep := p.replicas[(p.rr+i)%len(p.replicas)]
		if rep.healthy {
			out = append(out, rep)
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	any := false
	for _, rep := range p.replicas {
		if rep.healthy {
			any = true
			break
		}
	}
	p.mu.Unlock()
	if !any {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no healthy replicas"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (p *Proxy) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, p.Stats())
}

func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := p.Stats()
	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	fmt.Fprintf(&b, "# HELP dtproxy_build_info Build identity; the value is always 1.\n# TYPE dtproxy_build_info gauge\n")
	fmt.Fprintf(&b, "dtproxy_build_info{version=%q,go_version=%q} 1\n", buildinfo.Version, buildinfo.GoVersion())
	counter("dtproxy_requests_total", "Requests the routing front accepted.", st.Requests)
	counter("dtproxy_bad_requests_total", "Requests refused before routing (unreadable or oversized bodies).", st.BadRequests)
	counter("dtproxy_unrouted_total", "Requests no healthy replica could answer (502/503).", st.Unrouted)
	counter("dtproxy_reroutes_total", "Forward attempts retried on the next ring replica after a transport failure.", st.Reroutes)
	counter("dtproxy_hedges_total", "Interactive requests hedged to a second replica after the hedge delay.", st.Hedges)
	counter("dtproxy_hedge_wins_total", "Hedged attempts that answered before the primary.", st.HedgeWins)
	counter("dtproxy_ejections_total", "Replicas ejected from routing after consecutive health failures.", st.Ejections)
	counter("dtproxy_readmissions_total", "Ejected replicas readmitted after consecutive healthy probes.", st.Readmissions)
	fmt.Fprintf(&b, "# HELP dtproxy_hedge_delay_seconds Hedge delay currently in force (0 while unarmed or disabled).\n# TYPE dtproxy_hedge_delay_seconds gauge\n")
	fmt.Fprintf(&b, "dtproxy_hedge_delay_seconds %g\n", float64(st.HedgeDelayNS)/1e9)

	names := make([]string, 0, len(st.Routed))
	for name := range st.Routed {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "# HELP dtproxy_routed_total Requests routed per replica (winning attempt).\n# TYPE dtproxy_routed_total counter\n")
	for _, name := range names {
		fmt.Fprintf(&b, "dtproxy_routed_total{replica=%q} %d\n", name, st.Routed[name])
	}
	fmt.Fprintf(&b, "# HELP dtproxy_replica_healthy 1 while the replica is in routing rotation.\n# TYPE dtproxy_replica_healthy gauge\n")
	for _, name := range names {
		v := 0
		if st.Healthy[name] {
			v = 1
		}
		fmt.Fprintf(&b, "dtproxy_replica_healthy{replica=%q} %d\n", name, v)
	}

	fmt.Fprintf(&b, "# HELP dtproxy_request_duration_seconds End-to-end latency of proxied interactive schedule calls.\n# TYPE dtproxy_request_duration_seconds histogram\n")
	p.latency.Snapshot().WriteProm(&b, "dtproxy_request_duration_seconds", "")
	fmt.Fprintf(&b, "# HELP dtproxy_stage_duration_seconds Proxy-side stage latency (proxy_route: fingerprint+ring decision; hedge: hedge fire to winner).\n# TYPE dtproxy_stage_duration_seconds histogram\n")
	for _, stage := range obs.ProxyStages {
		p.stageLat[stage].Snapshot().WriteProm(&b, "dtproxy_stage_duration_seconds", fmt.Sprintf("stage=%q", stage))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// maxBodyBytes is the replicas' own request-body cap.
const maxBodyBytes = ingest.MaxBodyBytes

// route is the front door for everything the proxy does not serve
// itself. Schedule calls are fingerprint-routed; batch calls are routed
// by their first member's graph and streamed through; anything else
// (e.g. GET /v1/solvers) goes to any healthy replica.
func (p *Proxy) route(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	p.mu.Lock()
	p.stats.Requests++
	p.mu.Unlock()

	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			p.mu.Lock()
			p.stats.BadRequests++
			p.mu.Unlock()
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "proxy: read body: " + err.Error()})
			return
		}
	}

	var tr *obs.Trace
	if p.sampler.Sample() {
		tr = obs.NewTrace(obs.NewID(), t0)
		defer func() {
			td := tr.Snapshot(time.Since(t0))
			p.ringBuf.Add(td)
			obs.Release(tr)
		}()
	}

	// Routing decision: fingerprint the graph with the single-pass
	// ingest scan (no *Graph) and walk the ring. A body the ingest
	// rejects still routes — to any healthy replica — so the replica
	// owns the canonical 400 message.
	routeStart := time.Now()
	fp, hasKey, lane, single := p.fingerprint(r, body)
	cands := p.candidates(MixFingerprint(fp), hasKey)
	routeDur := time.Since(routeStart)
	p.stageLat[obs.StageProxyRoute].Observe(routeDur)
	tr.Observe(obs.StageProxyRoute, routeStart, routeDur)
	if tr != nil {
		tr.Annotate("path", r.URL.Path)
		if hasKey {
			tr.Annotate("fp", fmt.Sprintf("%016x", fp))
		}
	}
	if len(cands) == 0 {
		p.mu.Lock()
		p.stats.Unrouted++
		p.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "proxy: no healthy replicas"})
		return
	}

	if r.Method == http.MethodPost && r.URL.Path == "/v1/schedule/batch" {
		p.stream(w, r, body, cands)
		return
	}
	p.forward(w, r, body, cands, single && lane != "batch", tr, t0)
}

// fingerprint extracts the routing key from the request: the graph
// fingerprint for schedule and batch calls (a batch routes by its first
// member, keeping identical batches on one replica; the other members
// are not decoded). The body goes through the replicas' own ingest scan,
// so the key is the fingerprint the replica computes. single reports a
// single-schedule call — the only shape eligible for hedging.
func (p *Proxy) fingerprint(r *http.Request, body []byte) (fp uint64, ok bool, lane string, single bool) {
	if r.Method != http.MethodPost {
		return 0, false, "", false
	}
	req := ingest.Get()
	defer req.Release()
	switch r.URL.Path {
	case "/v1/schedule":
		if req.Decode(body, nil) != nil {
			return 0, false, "", true
		}
		if req.ParseGraph() != nil {
			return 0, false, req.Lane, true
		}
		return req.Graph.Fingerprint(), true, req.Lane, true
	case "/v1/schedule/batch":
		if req.DecodeBatchHead(body) != nil || req.ParseGraph() != nil {
			return 0, false, "", false
		}
		return req.Graph.Fingerprint(), true, "batch", false
	default:
		return 0, false, "", false
	}
}

// tryResult is one forwarded attempt's outcome.
type tryResult struct {
	rep    *replica
	status int
	header http.Header
	body   []byte
	err    error
	hedged bool
}

// forward answers a buffered call (single schedule, or any non-batch
// route): attempt the ring owner, hedge to the next ring replica after
// the armed delay when eligible, and fall back across the remaining
// candidates on transport errors. The first error-free attempt wins;
// losers are cancelled.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, body []byte,
	cands []*replica, hedgeable bool, tr *obs.Trace, t0 time.Time) {

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	ch := make(chan tryResult, len(cands))
	attempt := func(rep *replica, hedged bool) {
		go func() {
			res := p.try(ctx, rep, r, body)
			res.hedged = hedged
			ch <- res
		}()
	}

	var hedgeTimer *time.Timer
	var hedgeCh <-chan time.Time
	var hedgeFired time.Time
	if hedgeable && len(cands) > 1 {
		if d := p.hedgeDelay(); d > 0 {
			hedgeTimer = time.NewTimer(d)
			hedgeCh = hedgeTimer.C
			defer hedgeTimer.Stop()
		}
	}

	attempt(cands[0], false)
	next, outstanding := 1, 1
	var win tryResult
	for {
		select {
		case res := <-ch:
			outstanding--
			if res.err == nil {
				win = res
				goto done
			}
			// Transport failure: report it to health, move to the next
			// candidate if no other attempt is still in flight.
			p.report(res.rep, false, false)
			if outstanding == 0 {
				if next >= len(cands) {
					p.mu.Lock()
					p.stats.Unrouted++
					p.mu.Unlock()
					writeJSON(w, http.StatusBadGateway,
						map[string]string{"error": "proxy: all replicas failed: " + res.err.Error()})
					return
				}
				p.mu.Lock()
				p.stats.Reroutes++
				p.mu.Unlock()
				attempt(cands[next], false)
				next++
				outstanding++
			}
		case <-hedgeCh:
			hedgeCh = nil
			if next < len(cands) {
				hedgeFired = time.Now()
				p.mu.Lock()
				p.stats.Hedges++
				p.mu.Unlock()
				attempt(cands[next], true)
				next++
				outstanding++
			}
		case <-ctx.Done():
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]string{"error": "proxy: client gone: " + ctx.Err().Error()})
			return
		}
	}

done:
	cancel() // losers stop burning the upstream
	if win.hedged {
		p.mu.Lock()
		p.stats.HedgeWins++
		p.mu.Unlock()
	}
	if !hedgeFired.IsZero() {
		hedgeDur := time.Since(hedgeFired)
		p.stageLat[obs.StageHedge].Observe(hedgeDur)
		tr.Observe(obs.StageHedge, hedgeFired, hedgeDur)
	}
	p.mu.Lock()
	win.rep.routed++
	p.mu.Unlock()
	if tr != nil {
		tr.Annotate("replica", win.rep.name)
		if win.hedged {
			tr.Annotate("hedged", "winner")
		}
	}
	copyHeaders(w.Header(), win.header)
	w.Header().Set("X-DTProxy-Replica", win.rep.name)
	if win.hedged {
		w.Header().Set("X-DTProxy-Hedged", "1")
	}
	w.WriteHeader(win.status)
	_, _ = w.Write(win.body)
	if r.URL.Path == "/v1/schedule" {
		p.latency.Observe(time.Since(t0))
	}
}

// hedgeDelay is hedgeDelayLocked without requiring the caller to hold
// p.mu (the histogram snapshot takes its own lock).
func (p *Proxy) hedgeDelay() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hedgeDelayLocked()
}

// try performs one buffered forward attempt.
func (p *Proxy) try(ctx context.Context, rep *replica, r *http.Request, body []byte) tryResult {
	ctx, cancel := context.WithTimeout(ctx, p.cfg.RequestTimeout)
	defer cancel()
	url := rep.name + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, url, bytes.NewReader(body))
	if err != nil {
		return tryResult{rep: rep, err: err}
	}
	copyHeaders(req.Header, r.Header)
	resp, err := p.client.Do(req)
	if err != nil {
		return tryResult{rep: rep, err: err}
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return tryResult{rep: rep, err: err}
	}
	return tryResult{rep: rep, status: resp.StatusCode, header: resp.Header, body: respBody}
}

// stream forwards a batch call and streams the response through (NDJSON
// batches flush item by item; buffered batches pass through unchanged).
// Transport errors before the first response byte fall back to the next
// candidate; once bytes have flowed the stream is committed.
func (p *Proxy) stream(w http.ResponseWriter, r *http.Request, body []byte, cands []*replica) {
	var lastErr error
	for i, rep := range cands {
		if i > 0 {
			p.mu.Lock()
			p.stats.Reroutes++
			p.mu.Unlock()
		}
		ctx, cancel := context.WithTimeout(r.Context(), p.cfg.RequestTimeout)
		url := rep.name + r.URL.Path
		if r.URL.RawQuery != "" {
			url += "?" + r.URL.RawQuery
		}
		req, err := http.NewRequestWithContext(ctx, r.Method, url, bytes.NewReader(body))
		if err != nil {
			cancel()
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		copyHeaders(req.Header, r.Header)
		resp, err := p.client.Do(req)
		if err != nil {
			cancel()
			p.report(rep, false, false)
			lastErr = err
			continue
		}
		copyHeaders(w.Header(), resp.Header)
		w.Header().Set("X-DTProxy-Replica", rep.name)
		w.WriteHeader(resp.StatusCode)
		fl, _ := w.(http.Flusher)
		buf := make([]byte, 32<<10)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					break
				}
				if fl != nil {
					fl.Flush()
				}
			}
			if rerr != nil {
				break
			}
		}
		resp.Body.Close()
		cancel()
		p.mu.Lock()
		rep.routed++
		p.mu.Unlock()
		return
	}
	p.mu.Lock()
	p.stats.Unrouted++
	p.mu.Unlock()
	msg := "proxy: all replicas failed"
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	writeJSON(w, http.StatusBadGateway, map[string]string{"error": msg})
}

// hopHeaders are the hop-by-hop headers a proxy must not forward.
var hopHeaders = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Connection": true,
	"Te": true, "Trailer": true, "Transfer-Encoding": true, "Upgrade": true,
	"Content-Length": true, // recomputed for the re-framed body
}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		if hopHeaders[k] {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}
