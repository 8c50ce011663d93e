package taskgraph

import (
	"math/rand"
	"testing"
)

func TestReadyTrackerInitialRoots(t *testing.T) {
	g, ids := diamond(t)
	rt := NewReadyTracker(g)
	ready := rt.Ready()
	if len(ready) != 1 || ready[0] != ids[0] {
		t.Fatalf("initial ready = %v, want [A]", ready)
	}
	if rt.NumReady() != 1 || rt.AllDone() {
		t.Fatalf("NumReady=%d AllDone=%v", rt.NumReady(), rt.AllDone())
	}
}

func TestReadyTrackerLifecycle(t *testing.T) {
	g, ids := diamond(t)
	a, b, c, d := ids[0], ids[1], ids[2], ids[3]
	rt := NewReadyTracker(g)

	if err := rt.Claim(a); err != nil {
		t.Fatal(err)
	}
	if rt.IsReady(a) {
		t.Error("claimed task still ready")
	}
	newly, err := rt.Complete(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 2 || newly[0] != b || newly[1] != c {
		t.Fatalf("newly ready after A = %v, want [B C]", newly)
	}
	if _, err := rt.Complete(b); err != nil {
		t.Fatal(err) // completing a ready (unclaimed) task is allowed
	}
	newly, err = rt.Complete(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 1 || newly[0] != d {
		t.Fatalf("newly ready after C = %v, want [D]", newly)
	}
	if _, err := rt.Complete(d); err != nil {
		t.Fatal(err)
	}
	if !rt.AllDone() || rt.NumDone() != 4 {
		t.Fatalf("AllDone=%v NumDone=%d", rt.AllDone(), rt.NumDone())
	}
}

func TestReadyTrackerRelease(t *testing.T) {
	g, ids := diamond(t)
	rt := NewReadyTracker(g)
	if err := rt.Claim(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := rt.Release(ids[0]); err != nil {
		t.Fatal(err)
	}
	if !rt.IsReady(ids[0]) {
		t.Error("released task not ready")
	}
	if err := rt.Release(ids[0]); err == nil {
		t.Error("double release accepted")
	}
}

func TestReadyTrackerStateErrors(t *testing.T) {
	g, ids := diamond(t)
	rt := NewReadyTracker(g)
	if err := rt.Claim(ids[3]); err == nil {
		t.Error("claim of waiting task accepted")
	}
	if _, err := rt.Complete(ids[3]); err == nil {
		t.Error("completion of waiting task accepted")
	}
	if err := rt.Claim(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := rt.Claim(ids[0]); err == nil {
		t.Error("double claim accepted")
	}
	if _, err := rt.Complete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Complete(ids[0]); err == nil {
		t.Error("double completion accepted")
	}
}

// Property: completing tasks in any topological order visits every task
// exactly once, with the ready set never containing a task whose
// predecessors are unfinished.
func TestPropertyTrackerFollowsAnyTopoOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		g := randomDAG(rng, 1+rng.Intn(30), rng.Float64()*0.4)
		rt := NewReadyTracker(g)
		done := make(map[TaskID]bool)
		for !rt.AllDone() {
			ready := rt.Ready()
			if len(ready) == 0 {
				t.Fatalf("trial %d: tracker stuck with %d done", trial, rt.NumDone())
			}
			// Ready tasks must have all predecessors done.
			for _, id := range ready {
				for _, h := range g.Predecessors(id) {
					if !done[h.To] {
						t.Fatalf("trial %d: %d ready before pred %d", trial, id, h.To)
					}
				}
			}
			// Complete a random ready task.
			pick := ready[rng.Intn(len(ready))]
			if _, err := rt.Complete(pick); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if done[pick] {
				t.Fatalf("trial %d: %d completed twice", trial, pick)
			}
			done[pick] = true
		}
		if len(done) != g.NumTasks() {
			t.Fatalf("trial %d: %d done, want %d", trial, len(done), g.NumTasks())
		}
	}
}

// Property: over random DAGs (sizes straddling the 64-task bitmap word)
// and random Claim/Release/Complete sequences, including Rebind onto a
// smaller graph, AppendReady lists exactly the tasks a scan of the state
// bytes finds ready, in ascending order, and NumReady agrees.
func TestPropertyAppendReadyMatchesStateScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	check := func(trial int, rt *ReadyTracker) {
		t.Helper()
		var want []TaskID
		for i, st := range rt.state {
			if st == stReady {
				want = append(want, TaskID(i))
			}
		}
		got := rt.AppendReady(nil)
		if len(got) != len(want) || rt.NumReady() != len(want) {
			t.Fatalf("trial %d: AppendReady %v, NumReady %d, state scan %v", trial, got, rt.NumReady(), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: AppendReady %v, state scan %v", trial, got, want)
			}
		}
	}
	var rt *ReadyTracker
	for trial := 0; trial < 60; trial++ {
		g := randomDAG(rng, 1+rng.Intn(200), rng.Float64()*0.1)
		if rt == nil || rng.Intn(2) == 0 {
			rt = NewReadyTracker(g)
		} else {
			rt.Rebind(g) // reuses the bitmap when the new graph fits
		}
		check(trial, rt)
		var claimed []TaskID
		for step := 0; !rt.AllDone(); step++ {
			ready := rt.Ready()
			switch op := rng.Intn(4); {
			case op == 0 && len(ready) > 0:
				id := ready[rng.Intn(len(ready))]
				if err := rt.Claim(id); err != nil {
					t.Fatal(err)
				}
				claimed = append(claimed, id)
			case op == 1 && len(claimed) > 0:
				k := rng.Intn(len(claimed))
				if err := rt.Release(claimed[k]); err != nil {
					t.Fatal(err)
				}
				claimed = append(claimed[:k], claimed[k+1:]...)
			case op == 2 && len(claimed) > 0:
				k := rng.Intn(len(claimed))
				if _, err := rt.Complete(claimed[k]); err != nil {
					t.Fatal(err)
				}
				claimed = append(claimed[:k], claimed[k+1:]...)
			case len(ready) > 0:
				if _, err := rt.Complete(ready[rng.Intn(len(ready))]); err != nil {
					t.Fatal(err)
				}
			}
			check(trial, rt)
			if step > 10*g.NumTasks()+100 {
				t.Fatalf("trial %d: no progress", trial)
			}
		}
		if rng.Intn(3) == 0 {
			rt.Reset()
			check(trial, rt)
		}
	}
}
