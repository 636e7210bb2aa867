package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"

	uc "unisoncache"
)

// resultCache is the daemon's in-memory content-addressed result cache:
// a byte-bounded LRU over canonical run keys (uc.RunKey) with in-flight
// deduplication. Concurrent do calls for the same key collapse onto one
// execution — the first caller runs fn, everyone else parks on the
// flight and shares its outcome — so a burst of identical submissions
// costs one simulation. Cached Results are shared by reference across
// callers; they are treated as immutable (the daemon only ever marshals
// them).
//
// The bound is bytes, not entries: an entry is charged its marshaled
// JSON length (the same accounting internal/checkpoint uses), so a
// cache full of 100k-window replay results and a cache full of tiny
// synthetic ones obey the same memory budget. A single result larger
// than the whole budget is returned to its caller but not retained.
type resultCache struct {
	mu       sync.Mutex
	maxBytes int64
	size     int64
	entries  map[string]*list.Element
	order    *list.List // front = MRU; values are *cacheEntry
	inflight map[string]*flight
}

type cacheEntry struct {
	key   string
	res   uc.Result
	bytes int64
}

// flight is one in-progress execution other callers can join.
type flight struct {
	done chan struct{}
	res  uc.Result
	err  error
}

// newResultCache bounds the cache at maxBytes of marshaled results
// (minimum one page's worth, so a tiny configured bound still caches
// something).
func newResultCache(maxBytes int64) *resultCache {
	if maxBytes < 4096 {
		maxBytes = 4096
	}
	return &resultCache{
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		inflight: make(map[string]*flight),
	}
}

// resultBytes is the accounting size of a cached result: its marshaled
// JSON length. Marshaling a Result cannot fail (it is plain exported
// data), but a defensive floor keeps the accounting sane if it ever
// did. A caller that holds the encoding already (a store write or read)
// passes its length instead, and nobody marshals under the cache's lock,
// which every cached read takes.
func resultBytes(res uc.Result) int64 {
	b, err := json.Marshal(res)
	if err != nil {
		return 1
	}
	return int64(len(b))
}

// len returns the number of cached results.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// bytes returns the accounted size of all cached results.
func (c *resultCache) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// get peeks the cache without joining any in-flight execution (the
// submit fast path: answer a cached run in one round trip).
func (c *resultCache) get(key string) (uc.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.order.MoveToFront(e)
		return e.Value.(*cacheEntry).res, true
	}
	return uc.Result{}, false
}

// add inserts a result produced elsewhere (the persistent store)
// without running anything; n is the length of its encoding.
func (c *resultCache) add(key string, res uc.Result, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, res, n)
}

// insertLocked adds or refreshes an entry of n accounted bytes and evicts
// from the LRU tail past the byte budget. Caller holds c.mu.
func (c *resultCache) insertLocked(key string, res uc.Result, n int64) {
	if e, ok := c.entries[key]; ok {
		c.order.MoveToFront(e)
		return // content-addressed: same key, same bytes
	}
	if n > c.maxBytes {
		return // larger than the whole budget: serve, don't retain
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res, bytes: n})
	c.size += n
	for c.size > c.maxBytes {
		oldest := c.order.Back()
		ce := oldest.Value.(*cacheEntry)
		c.order.Remove(oldest)
		delete(c.entries, ce.key)
		c.size -= ce.bytes
	}
}

// do returns the result for key, executing fn at most once per key across
// concurrent callers. hit reports a cache hit (no execution, no waiting);
// shared reports that the caller joined another caller's in-flight
// execution. Errors are never cached — the next submission retries. fn
// returns the length of the result's encoding when it holds one, or 0.
//
// A panic inside fn is converted into an error: the flight still
// completes, so parked callers and Drain see a failed execution instead
// of hanging forever on a channel nobody will ever close (and the
// worker goroutine survives to take the next job).
func (c *resultCache) do(key string, fn func() (uc.Result, int64, error)) (res uc.Result, hit, shared bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.order.MoveToFront(e)
		res = e.Value.(*cacheEntry).res
		c.mu.Unlock()
		return res, true, false, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.res, false, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	// Whatever happens in fn — return, error, panic — the flight is
	// removed and closed exactly once, so parked callers always wake.
	var n int64
	defer func() {
		if p := recover(); p != nil {
			f.err = fmt.Errorf("serve: execution panicked: %v", p)
		}
		if f.err == nil && n == 0 {
			n = resultBytes(f.res)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if f.err == nil {
			c.insertLocked(key, f.res, n)
		}
		c.mu.Unlock()
		close(f.done)
		res, err = f.res, f.err
	}()
	f.res, n, f.err = fn()
	return f.res, false, false, f.err
}
