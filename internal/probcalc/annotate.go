package probcalc

import (
	"context"
	"fmt"

	"conquer/internal/qerr"
	"conquer/internal/storage"
	"conquer/internal/value"
)

// AnnotateAllParCtx runs AnnotateTableCtx over every dirty relation of a
// database — the complete offline probability-annotation pass of Figure
// 7's pipeline — under a context, with per-cluster parallelism inside
// each table; tables themselves are annotated one at a time. A nil
// distance uses InformationLoss everywhere.
func AnnotateAllParCtx(ctx context.Context, db *storage.DB, d Distance, parallelism int) error {
	for _, name := range db.TableNames() {
		tb, _ := db.Table(name)
		if !tb.Schema.IsDirty() {
			continue
		}
		if err := AnnotateTableCtx(ctx, tb, nil, d, parallelism); err != nil {
			return fmt.Errorf("annotating %s: %w", name, err)
		}
	}
	return nil
}

// AnnotateTableCtx computes tuple probabilities for a dirty table and
// writes them into its probability column — the "probability calculation"
// phase the paper times in Figure 7. Clusters come from the table's
// identifier column; attrCols selects the categorical attributes used to
// build the summaries (nil means every column except the identifier and
// probability columns). A nil distance uses InformationLoss. Non-string
// attribute values are treated as categories by the class of their
// printed form, without printing; so are cluster identifiers.
//
// Both the dataset-building pass and the probability assignment (where
// DCF merging makes the cost quadratic in cluster size) poll ctx, so
// annotation of a large relation can be canceled or run under a deadline.
// The assignment fans out as AssignProbabilitiesCtx describes
// (parallelism 1 keeps it serial), and its probabilities are
// bit-identical to the serial pass at every worker count; the dataset
// build and the probability-column writeback stay serial: the former is a
// single linear scan, the latter one store per row through UpdateColumn,
// which (like the rest of storage.Table) is not written for concurrent
// callers.
func AnnotateTableCtx(ctx context.Context, tb *storage.Table, attrCols []string, d Distance, parallelism int) error {
	rel := tb.Schema
	idIdx := rel.IdentifierIndex()
	probIdx := rel.ProbIndex()
	if idIdx < 0 || probIdx < 0 {
		return fmt.Errorf("probcalc: relation %s has no identifier/probability columns", rel.Name)
	}
	var cols []int
	if attrCols == nil {
		for i := range rel.Columns {
			if i != idIdx && i != probIdx {
				cols = append(cols, i)
			}
		}
	} else {
		for _, name := range attrCols {
			ci := rel.ColumnIndex(name)
			if ci < 0 {
				return fmt.Errorf("probcalc: relation %s has no column %q", rel.Name, name)
			}
			cols = append(cols, ci)
		}
	}

	attrs := make([]string, len(cols))
	for i, ci := range cols {
		attrs[i] = rel.Columns[ci].Name
	}
	ds := NewDataset(attrs)
	ds.ids = make([]int32, 0, tb.Len()*len(cols))
	clusterIDs := make([]value.Key, tb.Len())
	var tick qerr.Ticker
	for i := range clusterIDs {
		if err := tick.Poll(ctx); err != nil {
			return err
		}
		row := tb.Row(i)
		for a, ci := range cols {
			ds.add(a, category(row[ci]))
		}
		ds.n++
		clusterIDs[i] = category(row[idIdx]).Key()
	}

	assignments, err := ds.assign(ctx, GroupClusters(clusterIDs), d, parallelism)
	if err != nil {
		return err
	}
	probCol := rel.Columns[probIdx].Name
	for _, a := range assignments {
		if err := tb.UpdateColumn(a.Row, probCol, value.Float(a.Prob)); err != nil {
			return err
		}
	}
	return nil
}
