package exec

import (
	"container/heap"
	"fmt"
	"sort"

	"conquer/internal/value"
)

// TopN is the fusion of Sort and Limit: it keeps only the N smallest rows
// under the sort keys in a bounded heap, using O(N) memory instead of
// materializing and sorting the whole input. The paper's Figure 9 shows
// ORDER BY dominating query cost as duplication grows; for the common
// "top answers" use (ORDER BY prob DESC LIMIT k over clean answers) this
// operator removes that full-sort cost.
type TopN struct {
	Child Operator
	Keys  []SortKey
	N     int

	govHolder
	statsHolder
	batchHolder
	evs      []Evaluator
	keyBuf   []value.Value // sort-key scratch of the row being offered
	rows     [][]value.Value
	reserved int64
	pos      int
}

// NewTopN compiles the sort keys against the child schema. n must be
// positive.
func NewTopN(child Operator, keys []SortKey, n int) (*TopN, error) {
	if n <= 0 {
		return nil, fmt.Errorf("exec: TopN needs a positive limit, got %d", n)
	}
	t := &TopN{Child: child, Keys: keys, N: n}
	width := len(child.Schema())
	for _, k := range keys {
		if k.Pos >= 0 {
			if k.Pos >= width {
				return nil, fmt.Errorf("exec: sort position %d out of range (width %d)", k.Pos, width)
			}
			pos := k.Pos
			t.evs = append(t.evs, func(row []value.Value) (value.Value, error) {
				return row[pos], nil
			})
			continue
		}
		ev, err := Compile(k.Expr, child.Schema())
		if err != nil {
			return nil, err
		}
		t.evs = append(t.evs, ev)
	}
	return t, nil
}

func (t *TopN) Schema() RowSchema { return t.Child.Schema() }

// keyed pairs a row with its evaluated sort keys and arrival order (for
// stability).
type keyed struct {
	row  []value.Value
	keys []value.Value
	seq  int
}

// topHeap is a max-heap under the sort order: the root is the worst kept
// row, evicted when a better one arrives.
type topHeap struct {
	items []keyed
	keys  []SortKey
}

func (h *topHeap) Len() int { return len(h.items) }
func (h *topHeap) Less(i, j int) bool {
	// Max-heap: "less" means sorts-after.
	return sortsBefore(h.keys, h.items[j], h.items[i])
}
func (h *topHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *topHeap) Push(x any)    { h.items = append(h.items, x.(keyed)) }
func (h *topHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// sortsBefore orders two keyed rows by the sort keys, falling back to
// arrival order so the operator is stable like Sort.
func sortsBefore(keys []SortKey, a, b keyed) bool {
	for k := range keys {
		c := value.Compare(a.keys[k], b.keys[k])
		if c == 0 {
			continue
		}
		if keys[k].Desc {
			return c > 0
		}
		return c < 0
	}
	return a.seq < b.seq
}

// Open drains the child through the bounded heap.
func (t *TopN) Open() error {
	t.stats.markOpen()
	if err := t.Child.Open(); err != nil {
		return err
	}
	defer t.Child.Close()
	h := &topHeap{keys: t.Keys}
	seq := 0
	bb := NewBatch(t.batchCap())
	for {
		if err := t.gov.PollBatch(); err != nil {
			return err
		}
		if err := t.Child.NextBatch(bb); err != nil {
			return err
		}
		n := bb.Len()
		if n == 0 {
			break
		}
		t.stats.addIn(int64(n))
		for i := 0; i < n; i++ {
			if err := t.offer(h, bb.Row(i), &seq); err != nil {
				return err
			}
		}
	}
	items := h.items
	sort.Slice(items, func(i, j int) bool { return sortsBefore(t.Keys, items[i], items[j]) })
	t.rows = make([][]value.Value, len(items))
	for i, it := range items { //lint:allow ctxpoll -- bounded by the TopN limit, not data size
		t.rows[i] = it.row
	}
	t.pos = 0
	return nil
}

// offer folds one child row into the bounded heap. Heap insertions reserve
// per row, not per batch: they are bounded by N, not by input size, so
// there is nothing to amortize.
func (t *TopN) offer(h *topHeap, row []value.Value, seq *int) error {
	if t.keyBuf == nil {
		t.keyBuf = make([]value.Value, len(t.evs))
	}
	for k, ev := range t.evs {
		v, err := ev(row)
		if err != nil {
			return err
		}
		t.keyBuf[k] = v
	}
	// The keys sit in the scratch vector until the row is known to be
	// kept, so key vectors are allocated per retained row, not per input
	// row: a kept row takes the scratch with it, and the next scratch is
	// a fresh vector after a push, the evicted row's after a replacement.
	it := keyed{row: row, keys: t.keyBuf, seq: *seq}
	(*seq)++
	if h.Len() < t.N {
		t.stats.addBuffered(1)
		if err := t.gov.ReserveBuffered(1); err != nil {
			return err
		}
		t.reserved++
		t.keyBuf = nil
		heap.Push(h, it)
		return nil
	}
	if sortsBefore(t.Keys, it, h.items[0]) {
		t.keyBuf = h.items[0].keys
		h.items[0] = it
		heap.Fix(h, 0)
	}
	return nil
}

func (t *TopN) Close() error {
	t.stats.markDone()
	t.rows = nil
	t.gov.ReleaseBuffered(t.reserved)
	t.reserved = 0
	return nil
}

// Describe implements Operator.
func (t *TopN) Describe() string {
	parts := make([]string, len(t.Keys))
	for i, k := range t.Keys {
		if k.Pos >= 0 {
			parts[i] = fmt.Sprintf("#%d", k.Pos+1)
		} else {
			parts[i] = k.Expr.SQL()
		}
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return fmt.Sprintf("TopN(%d; %s)", t.N, joinComma(parts))
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}
