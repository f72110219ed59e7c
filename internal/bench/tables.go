package bench

import (
	"fmt"
	"strings"

	"conquer/internal/cora"
	"conquer/internal/probcalc"
	"conquer/internal/testdb"
)

// figure6Dataset loads the §4 customer relation shared by Tables 1-3.
func figure6Dataset() (*probcalc.Dataset, []string, error) {
	attrs, tuples, ids := testdb.Figure6Tuples()
	ds := probcalc.NewDataset(attrs)
	for _, t := range tuples {
		if err := ds.Add(t); err != nil {
			return nil, nil, err
		}
	}
	return ds, ids, nil
}

// Table1 renders the normalized tuple matrix of the paper's Table 1:
// p(v|t) per (attribute, value) column.
func Table1() (string, error) {
	ds, ids, err := figure6Dataset()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Table 1 — the normalized customer matrix (p(v|t) = 1/m per tuple value)\n")
	header := make([]string, ds.VocabSize())
	for v := 0; v < ds.VocabSize(); v++ {
		_, raw := ds.ValueName(v)
		header[v] = raw
	}
	fmt.Fprintf(&b, "%-4s", "")
	for _, h := range header {
		fmt.Fprintf(&b, "  %-10.10s", h)
	}
	b.WriteString("  cluster\n")
	for i := 0; i < ds.Len(); i++ {
		p := ds.TupleDistribution(i)
		fmt.Fprintf(&b, "t%-3d", i+1)
		for v := range header {
			if p.At(v) == 0 { //lint:allow floatcmp -- absent entry is exactly 0, not a computed probability
				fmt.Fprintf(&b, "  %-10s", "0")
			} else {
				fmt.Fprintf(&b, "  %-10.2f", p.At(v))
			}
		}
		fmt.Fprintf(&b, "  %s\n", ids[i])
	}
	return b.String(), nil
}

// Table2 renders the cluster representatives (DCFs) of the paper's
// Table 2.
func Table2() (string, error) {
	ds, ids, err := figure6Dataset()
	if err != nil {
		return "", err
	}
	clusters := probcalc.GroupClusters(ids)
	var b strings.Builder
	b.WriteString("Table 2 — the cluster representatives (DCFs) for customer\n")
	fmt.Fprintf(&b, "%-6s  %3s", "", "|c|")
	for v := 0; v < ds.VocabSize(); v++ {
		_, raw := ds.ValueName(v)
		fmt.Fprintf(&b, "  %-10.10s", raw)
	}
	b.WriteByte('\n')
	for c := 0; c < clusters.Len(); c++ {
		rep, err := ds.Representative(clusters.Rows(c))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "rep%-3d  %3d", c+1, rep.Count)
		for v := 0; v < ds.VocabSize(); v++ {
			if rep.P.At(v) == 0 { //lint:allow floatcmp -- absent entry is exactly 0, not a computed probability
				fmt.Fprintf(&b, "  %-10s", "0")
			} else {
				fmt.Fprintf(&b, "  %-10.3f", rep.P.At(v))
			}
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// Table3 renders the distance / similarity / probability computation of
// the paper's Table 3 on the Figure-6 relation.
func Table3() (string, error) {
	ds, ids, err := figure6Dataset()
	if err != nil {
		return "", err
	}
	as, err := probcalc.AssignProbabilities(ds, ids, nil)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Table 3 — probability calculation in customer\n")
	fmt.Fprintf(&b, "%-4s  %-8s  %-10s  %-10s  %-10s\n", "", "cluster", "d(t,rep)", "s_t", "p(t)")
	for i, a := range as {
		fmt.Fprintf(&b, "t%-3d  %-8s  %-10.4f  %-10.4f  %-10.4f\n",
			i+1, a.Cluster, a.Distance, a.Similarity, a.Prob)
	}
	return b.String(), nil
}

// Table4 renders the qualitative Cora evaluation of the paper's Table 4:
// the most frequent values of the Schapire cluster and its two most / two
// least likely tuples.
func Table4(seed int64) (string, error) {
	ds, ids, _, _ := cora.SchapireCluster(seed)
	as, err := probcalc.AssignProbabilities(ds, ids, nil)
	if err != nil {
		return "", err
	}
	ranked := probcalc.RankCluster(as, "schapire")
	var rows []int
	for i := 0; i < ds.Len(); i++ {
		rows = append(rows, i)
	}
	freq := ds.MostFrequentValues(rows)

	var b strings.Builder
	b.WriteString("Table 4 — example from the (synthesized) Cora data set\n")
	b.WriteString("Most frequent values\n")
	writeCitation(&b, freq, -1)
	b.WriteString("Top-2 tuples\n")
	for _, a := range ranked[:2] {
		writeCitation(&b, ds.Tuple(a.Row), a.Prob)
	}
	b.WriteString("Bottom-2 tuples\n")
	for _, a := range ranked[len(ranked)-2:] {
		writeCitation(&b, ds.Tuple(a.Row), a.Prob)
	}
	return b.String(), nil
}

func writeCitation(b *strings.Builder, t []string, prob float64) {
	for i, attr := range cora.Attrs {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(b, "%s=%s", attr, t[i])
	}
	if prob >= 0 {
		fmt.Fprintf(b, "  (p=%.4f)", prob)
	}
	b.WriteByte('\n')
}
