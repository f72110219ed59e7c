package server

// Admission control (DESIGN.md §13): every request passes through admit
// before touching an engine. Two watermarks shed load instead of queuing
// it unboundedly — a queue-depth watermark (MaxQueue waiters) and a
// projected-memory watermark fed by an EWMA of observed per-query
// buffered-row peaks. Requests under the watermarks wait for a tenant
// slot then a global slot; the wait is bounded by the request context, so
// a client hanging up (or a drain) releases the queue position.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"conquer/internal/qerr"
)

// ewmaShift sets the EWMA decay: new = old + (obs-old)/2^ewmaShift. At 3
// (1/8 weight) the model follows workload shifts within ~16 queries
// while a single outlier moves the estimate by only 12%.
const ewmaShift = 3

// costModel estimates what admitting one more query costs, from what
// completed queries actually cost. Both estimates are EWMAs updated
// lock-free on the completion path.
type costModel struct {
	// avgRows is the EWMA of per-query buffered-row peaks — the
	// governor's BufferedPeak, the engine's own measure of a query's
	// stateful-operator memory. Batch execution reserves that budget in
	// per-batch lumps but reaches identical totals and peaks (DESIGN.md
	// §15), so the feed is mode-independent.
	avgRows atomic.Int64
	// avgLatUS is the EWMA of per-query wall latency in microseconds;
	// retryAfter turns it into a backoff hint.
	avgLatUS atomic.Int64
}

// update folds one observation into an EWMA cell via CAS so concurrent
// completions never lose updates. The first observation seeds the cell
// directly instead of decaying from zero.
func update(cell *atomic.Int64, obs int64) {
	for {
		old := cell.Load()
		next := old + (obs-old)>>ewmaShift
		if old == 0 {
			next = obs
		}
		if cell.CompareAndSwap(old, next) {
			return
		}
	}
}

// observe records one completed query's buffered-row peak and latency.
func (c *costModel) observe(rows int64, lat time.Duration) {
	if rows > 0 {
		update(&c.avgRows, rows)
	}
	if us := lat.Microseconds(); us > 0 {
		update(&c.avgLatUS, us)
	}
}

// projectedRows estimates the buffered rows n concurrent queries would
// pin: the per-query EWMA times n. Zero until the first completion, so a
// cold server admits freely and tightens as evidence arrives.
func (c *costModel) projectedRows(n int64) int64 {
	return c.avgRows.Load() * n
}

// ticket is an admitted request's claim on execution capacity: release
// must be called exactly once when the query finishes.
type ticket struct {
	s      *Server
	tn     *tenant
	queued time.Duration
}

// release returns the global and tenant slots and drops the in-flight
// gauge.
func (t *ticket) release() {
	<-t.s.slots
	if t.tn.slots != nil {
		<-t.tn.slots
	}
	t.s.inflightGauge.Set(t.s.inflight.Add(-1))
}

// admit applies the watermarks and acquires execution slots, returning a
// ticket or the refusal: ErrDraining once shutdown has begun, ErrShed
// when a watermark is crossed, or the context's qerr (client hung up, or
// the drain canceled the wait) if ctx dies while queued.
func (s *Server) admit(ctx context.Context, tn *tenant) (*ticket, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	depth := s.queued.Add(1)
	if depth > int64(s.maxQueue) {
		s.queued.Add(-1)
		s.shed.Inc()
		return nil, fmt.Errorf("%w: queue depth %d over watermark %d", ErrShed, depth, s.maxQueue)
	}
	// Recorded after the depth check so the high-water mark counts only
	// requests actually allowed to wait, never the shed overflow.
	s.queuePeak.SetMax(depth)
	if wm := s.cfg.MemoryWatermarkRows; wm > 0 {
		if proj := s.cost.projectedRows(s.inflight.Load() + depth); proj > wm {
			s.queued.Add(-1)
			s.shed.Inc()
			return nil, fmt.Errorf("%w: projected %d buffered rows over watermark %d", ErrShed, proj, wm)
		}
	}
	start := time.Now()
	if tn.slots != nil {
		select {
		case tn.slots <- struct{}{}:
		case <-s.drainCh:
			s.queued.Add(-1)
			s.shed.Inc()
			return nil, ErrDraining
		case <-ctx.Done():
			s.queued.Add(-1)
			return nil, qerr.FromContext(ctx)
		}
	}
	select {
	case s.slots <- struct{}{}:
	case <-s.drainCh:
		if tn.slots != nil {
			<-tn.slots
		}
		s.queued.Add(-1)
		s.shed.Inc()
		return nil, ErrDraining
	case <-ctx.Done():
		if tn.slots != nil {
			<-tn.slots
		}
		s.queued.Add(-1)
		return nil, qerr.FromContext(ctx)
	}
	s.queued.Add(-1)
	s.inflightGauge.Set(s.inflight.Add(1))
	s.admitted.Inc()
	return &ticket{s: s, tn: tn, queued: time.Since(start)}, nil
}

// retryAfter estimates how long a shed client should back off: roughly
// one average query latency per request ahead of it, clamped to
// [50ms, 5s] so the hint stays useful when the EWMA is cold or the
// backlog estimate is extreme.
func (s *Server) retryAfter() time.Duration {
	lat := time.Duration(s.cost.avgLatUS.Load()) * time.Microsecond
	if lat <= 0 {
		lat = 100 * time.Millisecond
	}
	slots := int64(cap(s.slots))
	if slots < 1 {
		slots = 1
	}
	backlog := s.queued.Load() + s.inflight.Load()
	d := lat * time.Duration(backlog+1) / time.Duration(slots)
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}
