package cache

import (
	"context"

	"conquer/internal/qerr"
)

// flight is one in-progress execution that concurrent identical queries
// attach to instead of executing themselves.
type flight struct {
	done chan struct{} // closed when the leader finishes
	val  any           // set before done closes
	err  error
}

// flightKey couples the cache key with the version vector: queries over
// different database versions must not coalesce, or a follower could be
// handed a result computed over data it has already seen mutated. A pair,
// not a concatenation: every lookup makes one, hit or miss.
type flightKey struct{ key, vv string }

// Do returns the result cached under (key, vv) or computes it exactly
// once: the first caller to miss becomes the leader and runs fn; callers
// arriving while the flight is up wait for the leader and share its
// value (counted as singleflight-coalesced). The check-then-register
// step is atomic under the cache lock, so for any unique
// (query, version-vector) there is exactly one underlying execution
// unless the entry is evicted or invalidated in between.
//
// On success the value is admitted to the result tier under the byte
// budget before followers wake. fn's bytes return sizes the admission.
// A leader error is not cached and not shared: each waiting follower
// retries the whole sequence (and typically becomes a leader itself),
// so transient failures degrade to cache-off behavior instead of
// poisoning every coalesced caller. Cancellation of a follower's ctx
// abandons the wait with the qerr taxonomy error for its context.
//
// cached reports whether the returned value came from the cache or from
// another flight's execution (false only for the leader itself).
func (c *Cache) Do(ctx context.Context, key, vv string, fn func() (val any, bytes int64, err error)) (val any, cached bool, err error) {
	fk := flightKey{key, vv}
	for {
		c.mu.Lock()
		if v, ok := c.results.get(key, vv); ok {
			c.mu.Unlock()
			return v, true, nil
		}
		if f, ok := c.flights[fk]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, qerr.FromContext(ctx)
			}
			if f.err != nil {
				// The leader failed; try again (the next round either
				// hits a freshly cached value or elects a new leader).
				continue
			}
			c.coalesced.inc()
			return f.val, true, nil
		}
		f := &flight{done: make(chan struct{})}
		c.flights[fk] = f
		c.executions.inc()
		c.mu.Unlock()

		v, bytes, err := fn()
		c.mu.Lock()
		delete(c.flights, fk)
		if err == nil {
			c.results.put(key, vv, v, bytes)
		}
		c.mu.Unlock()
		f.val, f.err = v, err
		close(f.done)
		return v, false, err
	}
}
