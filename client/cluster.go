package client

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	uc "unisoncache"
	"unisoncache/internal/cluster"
	"unisoncache/internal/obs"
)

// Cluster is a fan-out client for a sharded unisonserved deployment: it
// builds the same consistent-hash ring the daemons build from the shared
// member list and routes each run to the daemon that owns its key, so the
// points of a plan whose Executor calls Execute land directly on the
// nodes whose caches and stores hold them, with no proxy hop. An
// unreachable node fails over along the ring's preference order (the
// owner's daemon would route a misdirected run itself, so failover only
// costs an extra hop, never a wrong answer).
//
//	cl, err := client.NewCluster([]string{
//	    "http://127.0.0.1:8080",
//	    "http://127.0.0.1:8081",
//	    "http://127.0.0.1:8082",
//	})
//
// A single-address Cluster degenerates to a plain Client with retry
// semantics, so callers can treat "one daemon" and "many daemons" as the
// same type (cmd/experiments does exactly this for its -server flag).
type Cluster struct {
	ring  *cluster.Ring
	nodes map[string]*Client
}

// NewCluster builds a fan-out client over the daemon base URLs. The list
// must match the daemons' own -peers configuration (same URLs, any
// order, normalized alike by cluster.Member) for direct routing; a
// differing list still returns correct results because daemons forward
// misrouted work to the true owner.
func NewCluster(addrs []string) (*Cluster, error) {
	ring := cluster.New(addrs, 0)
	if ring == nil {
		return nil, errors.New("client: cluster needs at least one daemon address")
	}
	c := &Cluster{ring: ring, nodes: make(map[string]*Client, len(ring.Nodes()))}
	for _, n := range ring.Nodes() {
		c.nodes[n] = New(n)
	}
	return c, nil
}

// Nodes returns the sorted member list the ring was built over.
func (c *Cluster) Nodes() []string { return c.ring.Nodes() }

// Node returns the per-daemon client for addr (nil if addr is not a
// member). Exposed so callers can tune retry knobs or query one node's
// /metrics directly.
func (c *Cluster) Node(addr string) *Client { return c.nodes[cluster.Member(addr)] }

// routeKey returns the ring key for a run: its canonical content
// address when computable, else a digest of the run's JSON. The
// fallback covers replay runs whose trace file is not readable on the
// client machine — the receiving daemon recomputes the canonical key
// and forwards if it lands elsewhere, so routing stays correct either
// way.
func routeKey(r uc.Run) string {
	if key, err := uc.RunKey(r); err == nil {
		return key
	}
	blob, err := json.Marshal(r)
	if err != nil {
		blob = []byte(fmt.Sprintf("%+v", r))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Health checks every member and returns the first node's report; any
// unreachable or unhealthy member fails the whole call, making this the
// "is the cluster ready" probe.
func (c *Cluster) Health(ctx context.Context) (Health, error) {
	var first Health
	for i, addr := range c.ring.Nodes() {
		h, err := c.nodes[addr].Health(ctx)
		if err != nil {
			return Health{}, fmt.Errorf("client: node %s: %w", addr, err)
		}
		if i == 0 {
			first = h
		}
	}
	return first, nil
}

// Execute routes one run to the daemon owning its key, failing over
// along the preference order only when a node was unreachable
// (transport-level failure). A response from a daemon — success or
// error — is final: the run may have executed, so replaying it elsewhere
// is wasteful at best. One request ID covers every attempt, so a
// failed-over run still reads as one trace.
func (c *Cluster) Execute(ctx context.Context, run uc.Run) (uc.Result, error) {
	ctx, _ = obs.EnsureRequestID(ctx)
	var lastErr error
	for _, addr := range c.ring.Preference(routeKey(run)) {
		res, err := c.nodes[addr].Execute(ctx, run)
		var ae *apiError
		if err == nil || errors.As(err, &ae) {
			return res, err
		}
		lastErr = err
		if ctx.Err() != nil {
			return uc.Result{}, lastErr
		}
	}
	return uc.Result{}, fmt.Errorf("client: every cluster node failed, last: %w", lastErr)
}
