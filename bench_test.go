// Benchmarks regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`):
//
//	BenchmarkTable1                  program characteristics
//	BenchmarkTable2/<prog>           SA vs HLF speedups per program
//	BenchmarkFigure1                 annealing cost trajectories
//	BenchmarkFigure2                 Newton-Euler Gantt chart
//	BenchmarkPackets                 §6a packet statistics
//	BenchmarkAnomaly                 §6b Graham anomaly
//	BenchmarkAblation*               design-choice ablations
//
// The measured numbers (speedups, gains) are attached to the benchmark
// output via ReportMetric; the formatted tables appear with -v through
// b.Log on the first iteration.
package repro_test

import (
	"runtime"
	"testing"

	"repro"
	"repro/internal/expt"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", expt.FormatTable1(rows))
			for _, r := range rows {
				b.ReportMetric(r.MaxSpeedup, "maxSp-"+shortName(r.Program))
			}
		}
	}
}

func shortName(title string) string {
	switch title {
	case "Newton-Euler Inverse Dynamics":
		return "NE"
	case "Gauss-Jordan Linear Solver":
		return "GJ"
	case "Fast Fourier Transform":
		return "FFT"
	case "Matrix Multiply":
		return "MM"
	default:
		return title
	}
}

func benchmarkTable2Program(b *testing.B, key string) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Table2(expt.Table2Config{
			Seed: 1991, Restarts: -1, Programs: []string{key},
			Workers: runtime.GOMAXPROCS(0),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", expt.FormatTable2(rows))
			for _, r := range rows {
				b.ReportMetric(r.Comm.Gain, "gain%-"+archShort(r.Arch))
			}
		}
	}
}

func archShort(name string) string {
	switch name {
	case "Hypercube (8p)":
		return "hc8"
	case "Bus (8p)":
		return "bus8"
	case "Ring (9p)":
		return "ring9"
	default:
		return name
	}
}

func BenchmarkTable2NewtonEuler(b *testing.B) { benchmarkTable2Program(b, "NE") }

func BenchmarkTable2GaussJordan(b *testing.B) { benchmarkTable2Program(b, "GJ") }

func BenchmarkTable2MatrixMultiply(b *testing.B) { benchmarkTable2Program(b, "MM") }

func BenchmarkTable2FFT(b *testing.B) { benchmarkTable2Program(b, "FFT") }

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := expt.Figure1(1991)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", fig.Plot(100, 20))
			b.ReportMetric(float64(len(fig.Trace)), "iterations")
			b.ReportMetric(float64(fig.Candidates), "candidates")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		chart, res, err := expt.Figure2(1991, 0, 120)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", chart)
			b.ReportMetric(res.Speedup, "speedup")
			b.ReportMetric(float64(res.Messages), "messages")
		}
	}
}

func BenchmarkPackets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ps, err := expt.Packets(1991)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(ps.Packets), "packets")
			b.ReportMetric(ps.AvgCandidates, "candidates/packet")
			b.ReportMetric(ps.AvgIdle, "idleProcs/packet")
		}
	}
}

func BenchmarkAnomaly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := expt.Anomaly(1991)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res)
			b.ReportMetric(res.FIFO, "fifoMakespan")
			b.ReportMetric(res.SA, "saMakespan")
		}
	}
}

func BenchmarkAblationWeights(b *testing.B) {
	archs, err := expt.Architectures()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		pts, err := expt.AblationWeights("NE", archs[2], 1991, 0.1, 0.9, 9)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", expt.FormatWeights("NE", archs[2].Name, pts))
			best := pts[0]
			for _, p := range pts[1:] {
				if p.Speedup > best.Speedup {
					best = p
				}
			}
			b.ReportMetric(best.Wb, "bestWb")
			b.ReportMetric(best.Speedup, "bestSpeedup")
		}
	}
}

func BenchmarkAblationCooling(b *testing.B) {
	archs, err := expt.Architectures()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		pts, err := expt.AblationCooling("NE", archs[0], 1991)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", expt.FormatCooling("NE", archs[0].Name, pts))
		}
	}
}

func BenchmarkAblationRandomGraphs(b *testing.B) {
	archs, err := expt.Architectures()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := expt.AblationRandomGraphs(archs[0], 30, true, 1991)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res)
			b.ReportMetric(res.GainSummary.Mean, "meanGain%")
			b.ReportMetric(float64(res.SAWins), "saWins")
		}
	}
}

// Library micro-benchmarks: the scheduling and simulation hot paths.

func BenchmarkScheduleSA_NE_Hypercube(b *testing.B) {
	g := repro.NewtonEuler()
	topo, err := repro.Hypercube(3)
	if err != nil {
		b.Fatal(err)
	}
	comm := repro.DefaultCommParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := repro.DefaultSAOptions()
		opt.Seed = int64(i)
		if _, _, err := repro.ScheduleSA(g, topo, comm, opt, repro.SimOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleSA_Cooperative anneals the Newton-Euler graph with
// restarts sharing one incumbent (the Table 2 workload shape): dominated
// restarts abandon early at stage barriers, so the restarted solve costs
// less than restarts× the single run. Abandoning can change the winner,
// so its schedule may differ from the plain restarted solve's. The
// abandoned/op metric proves the incumbent rule is actually firing.
func BenchmarkScheduleSA_Cooperative(b *testing.B) {
	g := repro.NewtonEuler()
	topo, err := repro.Hypercube(3)
	if err != nil {
		b.Fatal(err)
	}
	comm := repro.DefaultCommParams()
	abandoned := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := repro.DefaultSAOptions()
		opt.Seed = int64(i)
		opt.Restarts = 4
		opt.Cooperative = true
		_, sched, err := repro.ScheduleSA(g, topo, comm, opt, repro.SimOptions{})
		if err != nil {
			b.Fatal(err)
		}
		abandoned += sched.RestartsAbandoned()
	}
	b.ReportMetric(float64(abandoned)/float64(b.N), "abandoned/op")
}

func BenchmarkScheduleHLF_NE_Hypercube(b *testing.B) {
	g := repro.NewtonEuler()
	topo, err := repro.Hypercube(3)
	if err != nil {
		b.Fatal(err)
	}
	comm := repro.DefaultCommParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.ScheduleHLF(g, topo, comm, repro.SimOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleSA_GJ_Ring(b *testing.B) {
	g := repro.GaussJordan()
	topo, err := repro.Ring(9)
	if err != nil {
		b.Fatal(err)
	}
	comm := repro.DefaultCommParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := repro.DefaultSAOptions()
		opt.Seed = int64(i)
		if _, _, err := repro.ScheduleSA(g, topo, comm, opt, repro.SimOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalingCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := expt.Scaling("NE", 4, 1991)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", expt.FormatScaling("NE", pts))
			b.ReportMetric(pts[len(pts)-1].SA, "SA-speedup-16p")
		}
	}
}

func BenchmarkPolicyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.PolicyComparison(1991)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", expt.FormatPolicyComparison(rows))
		}
	}
}

func BenchmarkAblationStatic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.AblationStatic(1991)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", expt.FormatStatic(rows))
		}
	}
}

func BenchmarkAblationOptimal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		study, err := expt.AblationOptimal(30, 3, 1991)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", study)
			b.ReportMetric(float64(study.HLFWithin5Pct)/float64(study.Graphs), "hlfWithin5pct")
		}
	}
}
