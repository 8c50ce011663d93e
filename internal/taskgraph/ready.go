package taskgraph

import (
	"fmt"
	"math/bits"
)

// ReadyTracker maintains the set of ready tasks (tasks whose predecessors
// have all completed) as execution progresses. It is the bookkeeping behind
// the paper's annealing packets: "the ready tasks have no unfinished
// predecessors" (§4.1).
//
// The tracker is arena-friendly: the ready set is a bitmap beside the
// state array (no map), Reset rewinds both to the initial state without
// allocating, and AppendReady/Complete reuse caller- or tracker-owned
// buffers so a warm simulation loop performs no heap allocations. The
// bitmap makes AppendReady cost proportional to the ready set rather than
// to the task count: a simulator epoch on a 1000-task graph with a dozen
// ready tasks visits 16 words instead of 1000 state bytes.
type ReadyTracker struct {
	g         *Graph
	remaining []int    // unfinished predecessor count per task
	state     []byte   // 0 = waiting, 1 = ready, 2 = claimed, 3 = done
	ready     []uint64 // bit i set iff state[i] == stReady
	numReady  int
	done      int
	newlyBuf  []TaskID // reusable Complete output buffer
}

const (
	stWaiting byte = iota
	stReady
	stClaimed
	stDone
)

// NewReadyTracker returns a tracker with every root task ready.
func NewReadyTracker(g *Graph) *ReadyTracker {
	n := g.NumTasks()
	rt := &ReadyTracker{
		g:         g,
		remaining: make([]int, n),
		state:     make([]byte, n),
		ready:     make([]uint64, readyWords(n)),
	}
	rt.Reset()
	return rt
}

// Rebind points the tracker at a (possibly different) graph and resets
// it, growing the per-task buffers only when the new graph is larger than
// any seen before.
func (rt *ReadyTracker) Rebind(g *Graph) {
	rt.g = g
	n := g.NumTasks()
	if cap(rt.state) < n {
		rt.remaining = make([]int, n)
		rt.state = make([]byte, n)
		rt.ready = make([]uint64, readyWords(n))
	} else {
		rt.remaining = rt.remaining[:n]
		rt.state = rt.state[:n]
		rt.ready = rt.ready[:readyWords(n)]
	}
	rt.Reset()
}

// readyWords is the ready bitmap's length in words for n tasks.
func readyWords(n int) int { return (n + 63) / 64 }

func (rt *ReadyTracker) setReady(id TaskID) {
	rt.state[id] = stReady
	rt.ready[id>>6] |= 1 << (id & 63)
}

func (rt *ReadyTracker) clearReady(id TaskID) {
	rt.ready[id>>6] &^= 1 << (id & 63)
}

// Reset rewinds the tracker to its initial state (every root ready,
// nothing done) without allocating, so one tracker serves many runs.
func (rt *ReadyTracker) Reset() {
	rt.numReady = 0
	rt.done = 0
	clear(rt.ready)
	for i := range rt.state {
		rt.remaining[i] = rt.g.InDegree(TaskID(i))
		if rt.remaining[i] == 0 {
			rt.setReady(TaskID(i))
			rt.numReady++
		} else {
			rt.state[i] = stWaiting
		}
	}
}

// Ready returns the currently ready (and unclaimed) tasks in ascending ID
// order as a fresh slice.
func (rt *ReadyTracker) Ready() []TaskID {
	return rt.AppendReady(make([]TaskID, 0, rt.numReady))
}

// AppendReady appends the ready (unclaimed) tasks to dst in ascending ID
// order and returns the extended slice. Passing a reusable buffer keeps
// the call allocation-free once the buffer has grown to the peak size.
func (rt *ReadyTracker) AppendReady(dst []TaskID) []TaskID {
	for w, word := range rt.ready {
		for word != 0 {
			dst = append(dst, TaskID(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// NumReady returns the number of ready, unclaimed tasks.
func (rt *ReadyTracker) NumReady() int { return rt.numReady }

// IsReady reports whether the task is ready and unclaimed.
func (rt *ReadyTracker) IsReady(id TaskID) bool { return rt.state[id] == stReady }

// Claim marks a ready task as assigned to a processor (it leaves the ready
// pool but is not finished yet). It returns an error if the task is not
// ready.
func (rt *ReadyTracker) Claim(id TaskID) error {
	if rt.state[id] != stReady {
		return fmt.Errorf("taskgraph: claim of task %d in state %d", id, rt.state[id])
	}
	rt.state[id] = stClaimed
	rt.clearReady(id)
	rt.numReady--
	return nil
}

// Release returns a claimed task to the ready pool (used when an assignment
// is rolled back).
func (rt *ReadyTracker) Release(id TaskID) error {
	if rt.state[id] != stClaimed {
		return fmt.Errorf("taskgraph: release of task %d in state %d", id, rt.state[id])
	}
	rt.setReady(id)
	rt.numReady++
	return nil
}

// Complete marks a claimed (or ready) task as finished and returns the
// newly ready successors in ascending ID order. The returned slice is a
// tracker-owned buffer, valid only until the next Complete call; copy it
// to retain it.
func (rt *ReadyTracker) Complete(id TaskID) ([]TaskID, error) {
	switch rt.state[id] {
	case stClaimed:
	case stReady:
		rt.clearReady(id)
		rt.numReady--
	default:
		return nil, fmt.Errorf("taskgraph: completion of task %d in state %d", id, rt.state[id])
	}
	rt.state[id] = stDone
	rt.done++
	newly := rt.newlyBuf[:0]
	for _, h := range rt.g.Successors(id) {
		rt.remaining[h.To]--
		if rt.remaining[h.To] == 0 {
			rt.setReady(h.To)
			rt.numReady++
			// Insertion sort keeps ascending ID order; successor lists are
			// short, and this avoids the per-call sort.Slice closure.
			newly = append(newly, h.To)
			for k := len(newly) - 1; k > 0 && newly[k] < newly[k-1]; k-- {
				newly[k], newly[k-1] = newly[k-1], newly[k]
			}
		}
	}
	rt.newlyBuf = newly
	return newly, nil
}

// IsDone reports whether the task has completed.
func (rt *ReadyTracker) IsDone(id TaskID) bool { return rt.state[id] == stDone }

// AllDone reports whether every task has completed.
func (rt *ReadyTracker) AllDone() bool { return rt.done == rt.g.NumTasks() }

// NumDone returns the number of completed tasks.
func (rt *ReadyTracker) NumDone() int { return rt.done }
