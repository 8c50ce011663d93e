// Command perfbench is the repository's benchmark. It starts the real
// dtserve binary as a child process, drives it over loopback from
// closed-loop clients with payloads generated from a seed, checks every
// response, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced in-process replay) as one JSON line:
//
//	perfbench --dtserve bin/dtserve --workdir .bench_build \
//	    --workload warm_hit --seed 1 --seconds 20 --trace 0
//
// --seconds sets the timed phase's request count, not its duration: each
// workload sends a fixed number of requests per second of --seconds (its
// throughput when the benchmark was defined), so every run does the same
// work whatever the server's speed, and throughput_rps is the successful
// requests over the elapsed time.
//
// perfbench spread FILE... reads result lines (one run per line) and
// prints each metric's median and interquartile spread.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := spreadMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench spread:", err)
			os.Exit(1)
		}
		return
	}
	// One closed-loop client connection per CPU, at most nproc as the
	// workloads are defined.
	cfg := config{tailQ: 0.99, clients: runtime.NumCPU()}
	flag.StringVar(&cfg.workload, "workload", "", "workload: warm_hit, cold_sa or cold_hlf_large")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload generation seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "timed phase length: each workload sends its per-second request count this many times")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.StringVar(&cfg.dtserve, "dtserve", "", "path of the dtserve binary to benchmark")
	flag.StringVar(&cfg.workdir, "workdir", "", "scratch directory for cache tiers and span files")
	flag.Parse()
	cfg.trace = *trace == 1
	if cfg.dtserve == "" || cfg.workdir == "" || cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
