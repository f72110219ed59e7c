package probcalc

import (
	"context"
	"fmt"
	"sync/atomic"

	"conquer/internal/qerr"
)

// assignCluster runs the Figure-5 procedure for one cluster in sc's
// buffers, writing the assignments into out at the cluster's own row
// indices. Clusters are disjoint row sets, so concurrent calls for
// different clusters never touch the same out element — which is what
// makes per-cluster parallelism safe (and bit-deterministic) under Dfn 2:
// no arithmetic ever crosses a cluster boundary.
func (ds *Dataset) assignCluster(ctx context.Context, tick *qerr.Ticker, sc *scratch, rows []int, d Distance, out []Assignment) error {
	sc.dist = sc.dist[:0]
	if len(rows) > 1 {
		rep := ds.representative(sc, rows)
		for _, i := range rows {
			if err := tick.Poll(ctx); err != nil {
				return err
			}
			sc.single = ds.appendTuple(sc.single[:0], i)
			sc.dist = append(sc.dist, d(DCF{Count: 1, P: sc.single}, rep, ds.Len()))
		}
	}
	figure5(rows, sc.dist, out)
	return nil
}

// figure5 turns one cluster's distances into probabilities (Figure 5):
// dist[k] is rows[k]'s distance to the representative, s_t = 1 − d_t/S(c)
// and prob(t) = s_t/(|c| − 1). A cluster whose distances sum to 0 is
// uniform, and a singleton is certain (its dist is not read). It writes
// out at the cluster's own row indices and leaves Cluster to the caller.
func figure5(rows []int, dist []float64, out []Assignment) {
	if len(rows) == 1 {
		out[rows[0]] = Assignment{Row: rows[0], Similarity: 1, Prob: 1}
		return
	}
	s := 0.0
	for _, x := range dist {
		s += x
	}
	k := float64(len(rows))
	for idx, i := range rows {
		a := Assignment{Row: i, Distance: dist[idx]}
		if s <= 0 {
			// All members identical: uniform.
			a.Similarity = 1
			a.Prob = 1 / k
		} else {
			a.Similarity = 1 - dist[idx]/s
			a.Prob = a.Similarity / (k - 1)
		}
		out[i] = a
	}
}

// Clusters groups a dataset's tuples: clusters are numbered 0..Len()-1 in
// order of first appearance, and Rows(c) is cluster c's tuple indices in
// order, all carved from one array.
type Clusters struct {
	rows []int
	off  []int // cluster c's rows are rows[off[c]:off[c+1]]
}

// Len returns the number of clusters.
func (cs Clusters) Len() int { return len(cs.off) - 1 }

// Rows returns cluster c's tuple indices, capped so that an append copies.
func (cs Clusters) Rows(c int) []int { return cs.rows[cs.off[c]:cs.off[c+1]:cs.off[c+1]] }

// GroupClusters groups tuple indices 0..len(keys)-1 by key, keys[i] being
// tuple i's cluster: one map lookup per tuple numbers the clusters, and a
// counting sort lays their rows out.
func GroupClusters[K comparable](keys []K) Clusters {
	number := make(map[K]int)
	of := make([]int, len(keys))
	for i, k := range keys {
		c, ok := number[k]
		if !ok {
			c = len(number)
			number[k] = c
		}
		of[i] = c
	}
	// off[c+2] counts cluster c; the prefix sums make off[c+1] where c
	// starts, and filling moves it to where c ends, which is off[c+1]'s
	// final meaning.
	off := make([]int, len(number)+2)
	for _, c := range of {
		off[c+2]++
	}
	for c := 2; c < len(off); c++ {
		off[c] += off[c-1]
	}
	rows := make([]int, len(keys))
	for i, c := range of {
		rows[off[c+1]] = i
		off[c+1]++
	}
	return Clusters{rows: rows, off: off[:len(number)+1]}
}

// claimBatch sizes a worker pool's per-claim cluster batch: enough
// clusters per atomic claim that claim traffic stops dominating small
// clusters (many tables have thousands of 2-3 row clusters), small
// enough that every worker still sees ~2 claims for balance, capped at
// 64. It is the same amortization that exec's batch-at-a-time mode
// applies to governor polls and reservations (DESIGN.md §15), only the
// unit here is a cluster claim, not a row pull.
func claimBatch(clusters, workers int) int {
	b := clusters / (2 * workers)
	if b > 64 {
		b = 64
	}
	if b < 1 {
		b = 1
	}
	return b
}

// runClusterPool drains one cluster worklist with workers goroutines,
// each claiming claimBatch-sized runs of clusters off a shared counter,
// writing assignments into out. workers <= 1 runs serially. The serial
// loop and each worker own one scratch, sized for the widest cluster. The
// workers run in a qerr.Pool: the first worker error (or a cancellation)
// drains it, and panics cross the goroutine boundary only through
// qerr.Recover.
func (ds *Dataset) runClusterPool(ctx context.Context, cs Clusters, d Distance, out []Assignment, workers int) error {
	n, widest := cs.Len(), 0
	for c := 0; c < n; c++ {
		widest = max(widest, len(cs.Rows(c)))
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var tick qerr.Ticker
		sc := ds.newScratch(widest)
		for c := 0; c < n; c++ {
			if err := ds.assignCluster(ctx, &tick, &sc, cs.Rows(c), d, out); err != nil {
				return err
			}
		}
		return nil
	}
	batch := claimBatch(n, workers)
	var next atomic.Int64
	return qerr.Pool(ctx, workers, func(ctx context.Context, _ int) error {
		var tick qerr.Ticker
		sc := ds.newScratch(widest)
		for {
			lo := int(next.Add(int64(batch))) - batch
			if lo >= n {
				return nil
			}
			for c := lo; c < min(lo+batch, n); c++ {
				if err := tick.Poll(ctx); err != nil {
					return err
				}
				if err := ds.assignCluster(ctx, &tick, &sc, cs.Rows(c), d, out); err != nil {
					return err
				}
			}
		}
	})
}

// AssignProbabilitiesCtx is AssignProbabilities under a context, with a
// pool of parallelism workers claiming batches of clusters at a time: the
// per-tuple distance loop — quadratic in cluster size through the DCF
// merging behind Representative — polls ctx and aborts with a qerr
// cancellation error when it fires. Results are bit-identical to the
// serial pass (parallelism 1): DCF construction and information-loss
// distances never cross cluster boundaries (Dfn 2 makes clusters
// independent worlds), so each cluster's arithmetic is the same
// instruction stream regardless of which worker runs it.
func AssignProbabilitiesCtx(ctx context.Context, ds *Dataset, clusterIDs []string, d Distance, parallelism int) ([]Assignment, error) {
	if len(clusterIDs) != ds.Len() {
		return nil, fmt.Errorf("probcalc: %d cluster ids for %d tuples", len(clusterIDs), ds.Len())
	}
	out, err := ds.assign(ctx, GroupClusters(clusterIDs), d, parallelism)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].Cluster = clusterIDs[i]
	}
	return out, nil
}

// assign is the Figure-5 pass over the clusters cs, every tuple in one;
// Cluster is left empty. A nil d uses InformationLoss.
func (ds *Dataset) assign(ctx context.Context, cs Clusters, d Distance, parallelism int) ([]Assignment, error) {
	if d == nil {
		d = InformationLoss
	}
	out := make([]Assignment, ds.Len())
	if err := ds.runClusterPool(ctx, cs, d, out, parallelism); err != nil {
		return nil, err
	}
	return out, nil
}
