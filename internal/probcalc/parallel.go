package probcalc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"conquer/internal/qerr"
)

// assignCluster runs the Figure-5 procedure for one cluster, writing the
// assignments into out at the cluster's own row indices. Clusters are
// disjoint row sets, so concurrent calls for different clusters never
// touch the same out element — which is what makes per-cluster
// parallelism safe (and bit-deterministic) under Dfn 2: no arithmetic
// ever crosses a cluster boundary.
func (ds *Dataset) assignCluster(ctx context.Context, tick *qerr.Ticker, cid string, rows []int, d Distance, out []Assignment) error {
	rep, err := ds.Representative(rows)
	if err != nil {
		return err
	}
	if len(rows) == 1 {
		out[rows[0]] = Assignment{Row: rows[0], Cluster: cid, Similarity: 1, Prob: 1}
		return nil
	}
	s := 0.0
	dist := make([]float64, len(rows))
	for k, i := range rows {
		if err := tick.Poll(ctx); err != nil {
			return err
		}
		dist[k] = d(ds.SingletonDCF(i), rep, ds.Len())
		s += dist[k]
	}
	k := float64(len(rows))
	for idx, i := range rows {
		a := Assignment{Row: i, Cluster: cid, Distance: dist[idx]}
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
	return nil
}

// groupClusters groups tuple indices by cluster id, preserving
// first-appearance order.
func groupClusters(clusterIDs []string) (order []string, rowsOf map[string][]int) {
	rowsOf = map[string][]int{}
	for i, id := range clusterIDs {
		if _, ok := rowsOf[id]; !ok {
			order = append(order, id)
		}
		rowsOf[id] = append(rowsOf[id], i)
	}
	return order, rowsOf
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
// writing assignments into out. workers <= 1 runs serially. The first
// worker error (or a cancellation) drains the pool; panics cross the
// goroutine boundary only through qerr.Recover.
func (ds *Dataset) runClusterPool(ctx context.Context, order []string, rowsOf map[string][]int, d Distance, out []Assignment, workers int) error {
	if workers > len(order) {
		workers = len(order)
	}
	if workers <= 1 {
		var tick qerr.Ticker
		for _, cid := range order {
			if err := ds.assignCluster(ctx, &tick, cid, rowsOf[cid], d, out); err != nil {
				return err
			}
		}
		return nil
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	batch := claimBatch(len(order), workers)
	var next atomic.Int64
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			var err error
			func() {
				defer qerr.Recover(&err)
				var tick qerr.Ticker
				for {
					lo := int(next.Add(int64(batch))) - batch
					if lo >= len(order) {
						return
					}
					hi := lo + batch
					if hi > len(order) {
						hi = len(order)
					}
					for _, cid := range order[lo:hi] {
						if err = tick.Poll(wctx); err != nil {
							return
						}
						if err = ds.assignCluster(wctx, &tick, cid, rowsOf[cid], d, out); err != nil {
							return
						}
					}
				}
			}()
			if err != nil {
				cancel()
			}
			errs <- err
		}()
	}
	var first error
	for w := 0; w < workers; w++ {
		err := <-errs
		switch {
		case err == nil:
		case first == nil:
			first = err
		case errors.Is(first, qerr.ErrCanceled) && !errors.Is(err, qerr.ErrCanceled):
			first = err
		}
	}
	return first
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
	if d == nil {
		d = InformationLoss
	}
	order, rowsOf := groupClusters(clusterIDs)
	out := make([]Assignment, ds.Len())
	if err := ds.runClusterPool(ctx, order, rowsOf, d, out, parallelism); err != nil {
		return nil, err
	}
	return out, nil
}
