// Package atomiccalls seeds sync/atomic function calls for
// TestNoAtomicFunctionCalls: three calls, one through a renamed import.
package atomiccalls

import (
	"sync/atomic"
	sa "sync/atomic"
)

type stats struct {
	n     int64
	state int32
	typed atomic.Int64 // a typed atomic: its methods are not function calls
}

func (s *stats) record() int64 {
	atomic.AddInt64(&s.n, 1)
	sa.CompareAndSwapInt32(&s.state, 0, 1)
	s.typed.Add(1)
	return atomic.LoadInt64(&s.n) + s.typed.Load()
}
