// Package cluster implements consistent-hash job routing for the
// unisonserved daemon: a hash ring over a static node list with virtual
// nodes, mapping content-addressed run keys to owning daemons. Every
// process that builds a Ring from the same member list computes the same
// owners — the routing needs no coordination traffic, only agreement on
// the list — and because keys are SHA-256 run digests, load spreads
// uniformly without any knowledge of run contents.
//
// Adding or removing one node remaps only ~1/N of the key space (the
// classic consistent-hashing property, pinned by TestRingStability);
// combined with peer cache fill, a membership change costs a few fetches
// instead of a re-simulation storm.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
	"strings"
)

// DefaultReplicas is the virtual-node count per member: high enough that
// the per-node share of the key space concentrates near 1/N (the spread
// shrinks like 1/sqrt(replicas)), low enough that ring construction and
// lookup stay trivially cheap.
const DefaultReplicas = 128

// Ring is an immutable consistent-hash ring. Build with New; safe for
// concurrent use.
type Ring struct {
	nodes  []string // sorted, deduplicated member list
	points []point  // sorted by hash
}

type point struct {
	hash uint64
	node string
}

// Member normalizes a member name as the ring stores it: surrounding
// space and trailing slashes go, so "http://a:1/ " and "http://a:1" name
// one member. Daemons and clients look members up through it.
func Member(name string) string {
	return strings.TrimRight(strings.TrimSpace(name), "/")
}

// New builds a ring over nodes with the given virtual-node count per
// member (replicas <= 0 uses DefaultReplicas). Members are normalized
// (Member), empty ones dropped and duplicates collapsed; the daemon uses
// base URLs. A nil return means no nodes were given.
func New(nodes []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	seen := make(map[string]bool, len(nodes))
	var uniq []string
	for _, n := range nodes {
		n = Member(n)
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	if len(uniq) == 0 {
		return nil
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq, points: make([]point, 0, len(uniq)*replicas)}
	for _, n := range uniq {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, point{hash: hash(n + "#" + strconv.Itoa(i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node // deterministic on (absurdly unlikely) collisions
	})
	return r
}

// hash maps a string onto the ring's key space: the first 8 bytes of its
// SHA-256. Cryptographic mixing keeps virtual nodes uniform regardless of
// how similar the member names are (":8080" vs ":8081").
func hash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Nodes returns the sorted member list.
func (r *Ring) Nodes() []string { return r.nodes }

// Owner returns the node owning key: the first virtual node clockwise
// from the key's hash.
func (r *Ring) Owner(key string) string {
	return r.points[r.search(key)].node
}

// Preference returns every member in fallback order for key: the owner
// first, then each distinct node met walking clockwise. Callers use it to
// fail over when the owner is unreachable — every process computes the
// same order, so a failed-over key lands on the same substitute
// everywhere.
func (r *Ring) Preference(key string) []string {
	out := make([]string, 0, len(r.nodes))
	seen := make(map[string]bool, len(r.nodes))
	for i, at := 0, r.search(key); i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(at+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// search finds the index of the first point at or clockwise-after the
// key's hash.
func (r *Ring) search(key string) int {
	h := hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
