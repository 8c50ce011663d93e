// Command dtproxy is the routing front of a dtserve replica fleet:
//
//	dtproxy -addr :8000 -replicas http://10.0.0.1:8080,http://10.0.0.2:8080
//
// Each schedule request's graph is fingerprinted by the replicas' own
// single-pass ingest scan (no graph built) and consistent-hashed across the
// replicas, so every cache key's singleflight leadership lands on
// exactly one node fleet-wide — N replicas' duplicate cold solves
// collapse into one, and the shared dtcached tier replays it everywhere
// else. The proxy probes each replica's /healthz, ejects after
// consecutive failures, readmits after recovery, falls back along the
// ring on transport errors, and hedges slow interactive requests to the
// next ring replica after a p99-derived (or -hedge fixed) delay.
//
// Own endpoints: GET /healthz (ok while ≥ 1 replica is healthy),
// GET /statsz, GET /metrics (dtproxy_* families), GET /debug/requests.
// Everything else is routed. Responses carry X-DTProxy-Replica naming
// the replica that answered (and X-DTProxy-Hedged: 1 when the hedge
// won).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/proxy"
)

func main() {
	var (
		addr         = flag.String("addr", ":8000", "listen address")
		replicas     = flag.String("replicas", "", "comma-separated dtserve base URLs (required)")
		vnodes       = flag.Int("vnodes", 0, "consistent-hash points per replica (0 = 128)")
		healthEvery  = flag.Duration("health-interval", 0, "replica probe period (0 = 250ms)")
		healthTO     = flag.Duration("health-timeout", 0, "replica probe budget (0 = 1s)")
		failAfter    = flag.Int("fail-after", 0, "consecutive probe failures before ejection (0 = 2)")
		readmitAfter = flag.Int("readmit-after", 0, "consecutive healthy probes before readmission (0 = 2)")
		hedge        = flag.String("hedge", "auto", "interactive hedge delay: a duration, \"auto\" (p99-derived), or \"off\"")
		hedgeSamples = flag.Int("hedge-min-samples", 0, "observed responses before auto hedging arms (0 = 50)")
		reqTimeout   = flag.Duration("request-timeout", 0, "per-attempt upstream budget (0 = 120s)")
		traceSample  = flag.Int("trace-sample", 64, "trace one in N routed requests into /debug/requests (0 disables)")
		quiet        = flag.Bool("quiet", false, "disable routing/health logging")
		logFormat    = flag.String("log-format", "text", "log encoding: text or json")
		version      = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("dtproxy %s (%s)\n", buildinfo.Version, buildinfo.GoVersion())
		return
	}

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "dtproxy: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	if strings.TrimSpace(*replicas) == "" {
		fmt.Fprintln(os.Stderr, "dtproxy: -replicas is required")
		os.Exit(2)
	}
	var names []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			names = append(names, r)
		}
	}

	cfg := proxy.Config{
		Replicas:        names,
		VNodes:          *vnodes,
		HealthInterval:  *healthEvery,
		HealthTimeout:   *healthTO,
		FailAfter:       *failAfter,
		ReadmitAfter:    *readmitAfter,
		HedgeMinSamples: *hedgeSamples,
		RequestTimeout:  *reqTimeout,
		TraceSample:     *traceSample,
	}
	switch *hedge {
	case "auto":
		cfg.HedgeDelay = 0
	case "off":
		cfg.HedgeDelay = -1
	default:
		d, err := time.ParseDuration(*hedge)
		if err != nil || d <= 0 {
			fmt.Fprintf(os.Stderr, "dtproxy: bad -hedge %q (want a positive duration, \"auto\" or \"off\")\n", *hedge)
			os.Exit(2)
		}
		cfg.HedgeDelay = d
	}
	if !*quiet {
		cfg.Logger = logger
	}

	p, err := proxy.New(cfg)
	if err != nil {
		logger.Error("startup", "err", err)
		os.Exit(1)
	}
	defer p.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           p.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	logger.Info("listening", "addr", *addr, "version", buildinfo.Version,
		"replicas", len(names), "hedge", *hedge)

	select {
	case err := <-errCh:
		logger.Error("listen", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("shutdown", "err", err)
	}
}
