package dirty

import (
	"fmt"

	"conquer/internal/storage"
)

// CleanByBestTuple materializes the offline-cleaning baseline the paper's
// introduction argues against: for every cluster keep only the tuple with
// the highest probability (ties broken by table order), discarding the
// rest. The result is one concrete database — the single most likely
// candidate *per cluster*, which is NOT the most informative way to
// answer queries: in the Figure-1 example, cleaning this way leaves card
// 111 paired with Marion and the query "customers earning over $100K"
// returns empty, even though the clean answer semantics gives card 111 a
// 0.6 probability. Clean relations are copied unchanged.
func (d *DB) CleanByBestTuple() (*storage.DB, error) {
	out := storage.NewDB()
	for _, name := range d.Store.TableNames() {
		src, _ := d.Store.Table(name)
		dst, err := out.CreateTable(src.Schema)
		if err != nil {
			return nil, err
		}
		if !src.Schema.IsDirty() {
			for _, row := range src.Rows() {
				if err := dst.Insert(row); err != nil {
					return nil, err
				}
			}
			continue
		}
		probIdx := src.Schema.ProbIndex()
		clusters, err := d.Clusters(name)
		if err != nil {
			return nil, err
		}
		for _, c := range clusters {
			best, bestP := -1, -1.0
			for _, ri := range c.Rows {
				pv := src.Row(ri)[probIdx]
				if pv.IsNull() || !pv.IsNumeric() {
					return nil, fmt.Errorf("dirty: %s row %d has no probability to clean by", name, ri)
				}
				if p := pv.AsFloat(); p > bestP {
					best, bestP = ri, p
				}
			}
			if err := dst.Insert(src.Row(best)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// MostLikelyCandidate returns the globally most probable candidate
// database. Because clusters are independent, it coincides with choosing
// each cluster's best tuple; the probability of that one candidate is the
// product of the winners' probabilities — usually vanishingly small,
// which is the quantitative version of the paper's argument that
// committing to a single cleaning discards almost all probability mass.
func (d *DB) MostLikelyCandidate() (*Candidate, error) {
	cs, err := d.Candidates()
	if err != nil {
		return nil, err
	}
	cand := cs.NewCandidate()
	cand.Prob = 1
	for _, rc := range cs {
		chosen := cand.Chosen[rc.rel]
		for ci, cluster := range rc.clusters {
			best, bestP := -1, -1.0
			for _, ri := range cluster.Rows {
				pv := rc.table.Row(ri)[rc.probIdx]
				if pv.IsNull() || !pv.IsNumeric() {
					return nil, fmt.Errorf("dirty: %s row %d has no probability", rc.rel, ri)
				}
				if p := pv.AsFloat(); p > bestP {
					best, bestP = ri, p
				}
			}
			chosen[ci] = best
			cand.Prob *= bestP
		}
	}
	return cand, nil
}
