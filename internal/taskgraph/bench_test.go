package taskgraph

import (
	"encoding/json"
	"math/rand"
	"testing"
)

func benchDAG(b *testing.B, n int) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	g, err := GnpDAG("bench", n, 0.05, 1, 50, 10, 400, rng)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkLevels1000(b *testing.B) {
	g := benchDAG(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Levels(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopologicalOrder1000(b *testing.B) {
	g := benchDAG(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.TopologicalOrder(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadyTrackerFullRun(b *testing.B) {
	g := benchDAG(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := NewReadyTracker(g)
		for !rt.AllDone() {
			ready := rt.Ready()
			for _, id := range ready {
				if _, err := rt.Complete(id); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkCanonicalizerParse is the canonicalize layer of a served
// request on its own: a warm Canonicalizer parsing a 400-task wire
// document (as json.Marshal emits it) and emitting its canonical bytes.
func BenchmarkCanonicalizerParse(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g, err := GnpDAG("bench", 400, 0.02, 1, 50, 10, 400, rng)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := json.Marshal(g)
	if err != nil {
		b.Fatal(err)
	}
	var c Canonicalizer
	var buf []byte
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Parse(doc); err != nil {
			b.Fatal(err)
		}
		buf = c.AppendCanonicalJSON(buf[:0])
	}
}
