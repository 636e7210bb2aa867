package client

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	uc "unisoncache"
	"unisoncache/internal/cluster"
	"unisoncache/internal/obs"
)

// Cluster is a fan-out client for a sharded unisonserved deployment: it
// builds the same consistent-hash ring the daemons build from the shared
// member list and routes each run to the daemon that owns its key, so a
// plan's points land directly on the nodes whose caches and stores hold
// them. An unreachable node fails over along the ring's preference order
// (the owner's daemon would route a misdirected run itself, so failover
// only costs an extra hop, never a wrong answer).
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

// failover runs call against each node in pref order, moving on only
// when the node was unreachable (transport-level failure). A response
// from a daemon — success or error — is final: the work may have
// executed, so replaying it elsewhere is wasteful at best.
func (c *Cluster) failover(ctx context.Context, pref []string, call func(*Client) error) error {
	var lastErr error
	for _, addr := range pref {
		err := call(c.nodes[addr])
		if err == nil {
			return nil
		}
		var ae *apiError
		if errors.As(err, &ae) {
			return err
		}
		lastErr = err
		if ctx.Err() != nil {
			return lastErr
		}
	}
	return fmt.Errorf("client: every cluster node failed, last: %w", lastErr)
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
// along the preference order if that node is unreachable. One request ID
// covers every attempt, so a failed-over run still reads as one trace.
func (c *Cluster) Execute(ctx context.Context, run uc.Run) (uc.Result, error) {
	ctx, _ = obs.EnsureRequestID(ctx)
	var res uc.Result
	err := c.failover(ctx, c.ring.Preference(routeKey(run)), func(cl *Client) error {
		r, err := cl.Execute(ctx, run)
		if err == nil {
			res = r
		}
		return err
	})
	return res, err
}

// ExecuteMany partitions the points by owning daemon, submits each
// partition as one sweep job in parallel, and merges the results back
// into point order. Each daemon therefore executes (or serves from
// cache) exactly the keys it owns — the same placement its own routing
// would produce, without N proxy hops.
func (c *Cluster) ExecuteMany(ctx context.Context, points []uc.Run) ([]uc.Result, error) {
	if len(points) == 0 {
		return nil, nil
	}
	ctx, _ = obs.EnsureRequestID(ctx)
	type part struct {
		idx  []int
		runs []uc.Run
		key  string // a representative key, for the failover order
	}
	parts := make(map[string]*part)
	for i, p := range points {
		key := routeKey(p)
		owner := c.ring.Owner(key)
		pt := parts[owner]
		if pt == nil {
			pt = &part{key: key}
			parts[owner] = pt
		}
		pt.idx = append(pt.idx, i)
		pt.runs = append(pt.runs, p)
	}

	results := make([]uc.Result, len(points))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, pt := range parts {
		wg.Add(1)
		go func(pt *part) {
			defer wg.Done()
			var res []uc.Result
			err := c.failover(ctx, c.ring.Preference(pt.key), func(cl *Client) error {
				r, err := cl.ExecuteMany(ctx, pt.runs)
				if err == nil {
					res = r
				}
				return err
			})
			if err == nil && len(res) != len(pt.runs) {
				err = fmt.Errorf("client: cluster sweep returned %d results for %d points", len(res), len(pt.runs))
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			for j, i := range pt.idx {
				results[i] = res[j]
			}
		}(pt)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// coordinator picks the daemon that runs a whole-plan job (a speedup
// sweep): a stable digest of the point keys chooses the node, so
// resubmitting the same plan lands on the same daemon and hits its
// plan-level caches. The coordinator's own server-side routing
// spreads the member runs across the ring.
func (c *Cluster) coordinator(points []uc.Run) []string {
	keys := make([]string, len(points))
	for i, p := range points {
		keys[i] = routeKey(p)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return c.ring.Preference(hex.EncodeToString(h.Sum(nil)))
}

// SpeedupMany submits the whole plan to one coordinator daemon (chosen
// by the plan's key digest) so baseline memoization happens once, with
// ring failover if it is down.
func (c *Cluster) SpeedupMany(ctx context.Context, points []uc.Run) ([]uc.SpeedupResult, error) {
	ctx, _ = obs.EnsureRequestID(ctx)
	var out []uc.SpeedupResult
	err := c.failover(ctx, c.coordinator(points), func(cl *Client) error {
		r, err := cl.SpeedupMany(ctx, points)
		if err == nil {
			out = r
		}
		return err
	})
	return out, err
}
