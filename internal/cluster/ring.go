// Package cluster shards the gpujouled service across N nodes.
//
// The design leans entirely on content addressing: a simulation
// point's result is fully determined by its canonical sim key plus the
// binary/schema stamp, so identical keys are identical results on any
// node. That makes distribution a pure placement problem — the ring
// decides *where* a key's result should live and compute, never *what*
// it is — and lets every layer degrade safely: a mis-routed key is
// merely a cache miss, a dead owner's keys reroute to its successor,
// and in the worst case a node just computes locally. Correctness
// never depends on the ring; only efficiency does.
//
// The pieces:
//
//   - Ring (this file): consistent hashing with virtual nodes over
//     sim keys. Joining a node moves ~1/(N+1) of the key space.
//   - health.go: passive per-peer health with exponential backoff and
//     half-open probing.
//   - fabric.go: the per-server view — routing with reroute-on-
//     unhealthy, cache peering over /v1/cache (owner + one replica,
//     joining in-flight computations), async best-effort replication
//     of fresh results, and the gateway's ring-routed remote
//     execution: a gateway is a plain service.Server whose cache
//     misses run on their ring owner as one-point explicit sub-jobs,
//     failing over along the successor chain.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVNodes is the default virtual-node count per physical node.
// 64 vnodes keep the expected per-node load imbalance within a few
// percent for single-digit cluster sizes while the ring stays small
// enough to rebuild on every membership change.
const DefaultVNodes = 64

// Ring is an immutable consistent-hash ring over node base URLs.
// Build one with NewRing; membership changes build a new Ring (they
// are rare — rings change on operator action, not per request).
type Ring struct {
	nodes  []string // sorted physical nodes
	points []ringPoint
}

// ringPoint is one virtual node position.
type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over the given node base URLs with vnodes
// virtual nodes each (<= 0 selects DefaultVNodes). Duplicate nodes are
// collapsed.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := map[string]bool{}
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
	}
	sort.Strings(r.nodes)
	for _, n := range r.nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", n, v)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by node name so every
		// ring built from the same membership is identical.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// ringHash positions a string on the ring: the first 8 bytes of its
// SHA-256. The same construction hashes keys and virtual nodes, and
// matches the content-addressed spirit of the cache (no seed, no
// process-local state — every node computes the same ring).
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Nodes returns the ring's physical nodes, sorted.
func (r *Ring) Nodes() []string { return r.nodes }

// Len returns the number of physical nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner returns the node owning key: the first virtual node clockwise
// from the key's hash. Empty ring returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(ringHash(key))].node
}

// Successors returns up to n distinct nodes for key in ring order:
// the owner first, then the next distinct physical nodes clockwise.
// The second entry is the key's replica target.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := map[string]bool{}
	for i, start := 0, r.search(ringHash(key)); len(out) < n && i < len(r.points); i++ {
		node := r.points[(start+i)%len(r.points)].node
		if !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	return out
}

// search finds the index of the first ring point with hash >= h
// (wrapping to 0).
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
