package cache

import (
	"fmt"
	"sync"
	"testing"
)

// The result tier's byte budget, read back through Stats(): these are the
// cases exec.CacheBudget's own tests covered before the budget became the
// cache's.

func TestCacheBudgetReserveRelease(t *testing.T) {
	c := newTestCache(100)
	putResult(c, "a", "v", "A", 60)
	putResult(c, "b", "v", "B", 40)
	if s := c.Stats(); s.Bytes != 100 || s.PeakBytes != 100 || s.MaxBytes != 100 {
		t.Fatalf("bytes=%d peak=%d max=%d, want 100/100/100", s.Bytes, s.PeakBytes, s.MaxBytes)
	}
	// An entry over the whole budget is not admitted, leaves no charge
	// behind and evicts nothing looking for room.
	putResult(c, "huge", "v", "X", 101)
	if _, ok := getResult(c, "huge", "v"); ok {
		t.Fatal("over-budget entry must not be admitted")
	}
	if s := c.Stats(); s.Bytes != 100 || s.Entries != 2 || s.PeakBytes != 100 || s.Evictions != 0 {
		t.Fatalf("after over-budget put: %+v", s)
	}
	// Replacing and invalidating an entry returns its bytes.
	putResult(c, "a", "v", "A", 60)
	putResult(c, "a", "v2", "A2", 30)
	if s := c.Stats(); s.Bytes != 70 || s.Entries != 2 {
		t.Fatalf("replacement leaked bytes: %+v", s)
	}
	putResult(c, "b", "v", "B", 60)
	if _, ok := getResult(c, "a", "v3"); ok { // stale vector: entry dropped
		t.Fatal("stale vector must miss")
	}
	if s := c.Stats(); s.Bytes != 60 || s.PeakBytes != 100 {
		t.Fatalf("bytes=%d peak=%d, want 60/100", s.Bytes, s.PeakBytes)
	}
}

func TestCacheBudgetZeroAdmitsNothing(t *testing.T) {
	for _, max := range []int64{0, -1} {
		c := newTestCache(max)
		putResult(c, "a", "v", "A", 1)
		if _, ok := getResult(c, "a", "v"); ok {
			t.Fatalf("MaxBytes %d should admit nothing", max)
		}
		if s := c.Stats(); s.Bytes != 0 || s.PeakBytes != 0 || s.Entries != 0 {
			t.Fatalf("MaxBytes %d: %+v", max, s)
		}
	}
}

func TestCacheBudgetConcurrent(t *testing.T) {
	const workers, per = 8, 1000
	c := newTestCache(workers * per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				putResult(c, fmt.Sprintf("%d/%d", w, i), "v", i, 1)
			}
		}()
	}
	wg.Wait()
	if s := c.Stats(); s.Bytes != workers*per || s.PeakBytes != workers*per || s.Evictions != 0 {
		t.Fatalf("after %d one-byte entries: %+v", workers*per, s)
	}
}
