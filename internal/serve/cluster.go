package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	uc "unisoncache"
)

// forwardedHeader marks daemon-to-daemon traffic. A submission carrying
// it has already been routed once and must execute on the receiving
// daemon — the guard that makes cluster routing one hop maximum even
// when members disagree about the ring (rolling config changes,
// misconfigured peer lists): requests can be misplaced, never looped.
const forwardedHeader = "X-Unison-Forwarded"

// peerFillTimeout bounds each peer cache lookup during a fill. Lookups
// are pure cache/store reads on the peer, so a slow answer means a
// wedged peer — move on and simulate.
const peerFillTimeout = 5 * time.Second

// storeGet looks key up in the persistent store and returns the result
// with the length of its record, the result's encoding. Any store error —
// including a result that no longer unmarshals — reads as a miss: the
// store is a cache of re-computable data, so degrading to re-simulation
// is always safe.
func (s *Server) storeGet(key string) (uc.Result, int64, bool) {
	if s.store == nil {
		return uc.Result{}, 0, false
	}
	start := time.Now()
	blob, ok, err := s.store.Get(key)
	s.lat.storeRead.ObserveSince(start)
	if err != nil || !ok {
		return uc.Result{}, 0, false
	}
	var res uc.Result
	if err := res.UnmarshalJSON(blob); err != nil {
		return uc.Result{}, 0, false
	}
	return res, int64(len(blob)), true
}

// storePut persists a result and returns the length of its encoding (0
// without a store). Write errors are swallowed: a full or failing disk
// must not fail a simulation that already succeeded; the daemon just
// loses durability for that entry.
func (s *Server) storePut(key string, res uc.Result) int64 {
	if s.store == nil {
		return 0
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return 0
	}
	start := time.Now()
	_ = s.store.Put(key, blob)
	s.lat.storeWrite.ObserveSince(start)
	return int64(len(blob))
}

// remoteExecute forwards a run to its owning daemon and returns the
// owner's result. The bit-identity contract holds across the hop: the
// owner executes (or serves from cache) the exact same defaulted
// configuration, and Results round-trip JSON losslessly. ctx carries the
// request ID, which the peer client stamps on the forwarded request, so
// the hop shows up under the same ID in the owner's logs.
func (s *Server) remoteExecute(ctx context.Context, owner, key string, r uc.Run) (uc.Result, error) {
	start := time.Now()
	res, err := s.peers[owner].Execute(ctx, r)
	dur := time.Since(start)
	s.lat.peer.With("proxy").Observe(dur.Seconds())
	lg := s.reqLog(ctx).With("run_key", keyPrefix(key), "owner", owner, "dur_ms", durMillis(dur))
	if err != nil {
		lg.Warn("proxy to owner failed", "error", err.Error())
	} else {
		lg.Info("proxied to owner")
	}
	return res, err
}

// peerFill asks the other members for a cached result before this
// daemon — the key's owner — re-simulates. Peers answer from memory or
// store only (GET /v1/results/{key} never executes), so the worst case
// is a few fast 404s. This is what makes membership changes and
// restarts cheap: keys that moved onto this node are fetched, not
// re-simulated.
func (s *Server) peerFill(ctx context.Context, key string) (uc.Result, bool) {
	for _, n := range s.ring.Preference(key) {
		cl, ok := s.peers[n]
		if !ok {
			continue // self
		}
		lctx, cancel := context.WithTimeout(ctx, peerFillTimeout)
		start := time.Now()
		res, ok, err := cl.LookupResult(lctx, key)
		cancel()
		s.lat.peer.With("peer-fill").ObserveSince(start)
		if err == nil && ok {
			s.reqLog(ctx).Info("peer fill",
				"run_key", keyPrefix(key), "peer", n,
				"dur_ms", durMillis(time.Since(start)))
			return res, true
		}
	}
	return uc.Result{}, false
}

// handleResult serves GET /v1/results/{key}: a pure lookup in the
// memory cache and persistent store that never triggers execution. 404
// means "not here" — peers use this for cache fill, and operators can
// use it to probe what a node holds.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if res, _, ok := s.held(key); ok {
		writeJSON(w, http.StatusOK, res)
		return
	}
	writeError(w, http.StatusNotFound, "no result for key "+key)
}
