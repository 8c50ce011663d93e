// Package proxy implements dtproxy, the routing front of the dtserve
// replica fleet. It consistent-hashes each request's graph fingerprint —
// computed by the replicas' own single-pass ingest scan, no graph built —
// across the replicas, so every key's singleflight leadership lands on
// exactly one node fleet-wide: N replicas' duplicate cold solves for a
// hot key collapse into one, and the shared remote tier (dtcached) turns
// that one solve into remote hits everywhere else. Around the hashing it
// keeps per-replica health (probe-based ejection and readmission) and
// hedges slow interactive requests to the next replica on the ring after
// a p99-derived delay.
package proxy

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// defaultVNodes is the virtual-node count per replica: 128 points keeps
// the worst replica's key share within ~2× the mean (proven by the ring
// balance test) while the whole ring stays a few KB.
const defaultVNodes = 128

// Ring is an immutable consistent-hash ring over replica indexes. Each
// replica contributes VNodes points hashed from "<name>#<i>", so the key
// space is diced into arcs whose ownership moves minimally when a
// replica joins or leaves: only the arcs adjacent to the changed
// replica's points change hands, about 1/N of the keys.
type Ring struct {
	points []ringPoint // sorted ascending by hash
	nodes  int
}

type ringPoint struct {
	hash uint64
	node int
}

// NewRing builds a ring over the named replicas with vnodes points each
// (<= 0 means 128). Names must be distinct — duplicate names would alias
// every point and silently halve the fleet.
func NewRing(names []string, vnodes int) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("proxy: ring needs at least one replica")
	}
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	seen := make(map[string]bool, len(names))
	r := &Ring{points: make([]ringPoint, 0, len(names)*vnodes), nodes: len(names)}
	for node, name := range names {
		if seen[name] {
			return nil, fmt.Errorf("proxy: duplicate replica name %q", name)
		}
		seen[name] = true
		for i := 0; i < vnodes; i++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", name, i)
			r.points = append(r.points, ringPoint{hash: h.Sum64(), node: node})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (astronomically rare with 64-bit FNV) break by node so the
		// ring is deterministic regardless of input order.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Nodes returns the replica count the ring was built over.
func (r *Ring) Nodes() int { return r.nodes }

// Sequence appends to buf the preference order for key hash h: the
// distinct replica indexes encountered walking clockwise from the arc
// owning h, at most max of them. buf[0] is the key's owner; later
// entries are the natural fallback/hedge targets (they inherit the arc
// if earlier replicas are ejected, so routing under failure matches
// ring semantics instead of an arbitrary reshuffle).
func (r *Ring) Sequence(h uint64, buf []int, max int) []int {
	if max > r.nodes {
		max = r.nodes
	}
	// First point with hash >= h, wrapping to 0 — the standard ring walk.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var seen uint64 // node-index bitset; rings are small (≤ 64 handled fast)
	var seenBig map[int]bool
	if r.nodes > 64 {
		seenBig = make(map[int]bool, max)
	}
	for n := 0; n < len(r.points) && len(buf) < max; n++ {
		p := r.points[(i+n)%len(r.points)]
		if seenBig != nil {
			if seenBig[p.node] {
				continue
			}
			seenBig[p.node] = true
		} else {
			if seen&(1<<uint(p.node)) != 0 {
				continue
			}
			seen |= 1 << uint(p.node)
		}
		buf = append(buf, p.node)
	}
	return buf
}

// Owner returns the replica index owning key hash h.
func (r *Ring) Owner(h uint64) int {
	var buf [1]int
	return r.Sequence(h, buf[:0], 1)[0]
}

// MixFingerprint whitens a graph fingerprint before the ring lookup.
// Fingerprints are already 64-bit hashes, but they share a construction
// with the cache key; one splitmix64 round decorrelates the ring
// placement from any structure in that space for ~2ns.
func MixFingerprint(fp uint64) uint64 {
	z := fp + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
