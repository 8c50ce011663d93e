package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// buildServer builds dtserve from the repository into a test directory.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dtserve")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/dtserve").CombinedOutput()
	if err != nil {
		t.Fatalf("build dtserve: %v\n%s", err, out)
	}
	return bin
}

func smokeRun(t *testing.T, bin, workload string, trace bool) *result {
	t.Helper()
	// A one-second timed phase is too short for a p99 with ten samples
	// beyond it, so the smoke runs report the median as their tail.
	res, err := run(context.Background(), config{workload: workload, seed: heldOutSeed, seconds: 1,
		trace: trace, dtserve: bin, workdir: t.TempDir(), clients: runtime.NumCPU(), tailQ: 0.5})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct %v, %d of %d failed", workload, trace, res.Correct, res.Failed, res.Attempted)
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s trace=%v: %d metrics, want %d", workload, trace, len(res.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := res.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, m.name)
		case v.Unit != m.unit:
			t.Errorf("%s: %s in %q, want %q", workload, m.name, v.Unit, m.unit)
		case !trace && !(v.Value > 0):
			t.Errorf("%s: end-to-end %s = %g, want > 0", workload, m.name, v.Value)
		}
	}
	return res
}

// TestSmoke runs each workload for a second, traced and untraced, on the
// held-out seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts dtserve")
	}
	bin := buildServer(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			smokeRun(t, bin, name, trace)
		}
	}
}

// TestDecisionsRepeat checks that the quality metrics and the annealer's
// move, stage and acceptance counts repeat exactly for one seed.
func TestDecisionsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("starts dtserve")
	}
	bin := buildServer(t)
	for _, trace := range []bool{false, true} {
		a := smokeRun(t, bin, coldSA, trace)
		b := smokeRun(t, bin, coldSA, trace)
		names := []string{"makespan_vs_lb", "makespan_vs_hlf"}
		if trace {
			names = []string{"core.moves_per_solve", "core.stages_per_solve", "core.accept_ratio"}
		}
		for _, n := range names {
			if a.Metrics[n] != b.Metrics[n] {
				t.Errorf("%s differs between two runs of one seed: %v vs %v", n, a.Metrics[n], b.Metrics[n])
			}
		}
	}
}

// TestReferenceMatchesServedHLF pins that the in-process HLF reference
// solves the graph the server decodes: on the HLF workload every served
// makespan equals its reference.
func TestReferenceMatchesServedHLF(t *testing.T) {
	if testing.Short() {
		t.Skip("starts dtserve")
	}
	res := smokeRun(t, buildServer(t), coldHLFLarge, false)
	if got := res.Metrics["makespan_vs_hlf"].Value; got != 1 {
		t.Errorf("makespan_vs_hlf = %v on the HLF workload, want exactly 1", got)
	}
}
