package bench

import (
	"fmt"
	"time"

	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/teradata"
	"gamma/internal/wisconsin"
)

// paperTable1[row][size][machine]: published seconds; machine 0 = Teradata,
// 1 = Gamma; size index 0=10k 1=100k 2=1M; 0 = not published.
var paperTable1 = map[string][3][2]float64{
	"1% nonindexed selection":                 {{6.86, 1.63}, {28.22, 13.83}, {213.13, 134.86}},
	"10% nonindexed selection":                {{15.97, 2.11}, {110.96, 17.44}, {1106.86, 181.72}},
	"1% selection using non-clustered index":  {{7.81, 1.03}, {29.94, 5.32}, {222.65, 53.86}},
	"10% selection using non-clustered index": {{16.82, 2.16}, {111.40, 17.65}, {1107.59, 182.00}},
	"1% selection using clustered index":      {{0, 0.59}, {0, 1.25}, {0, 7.50}},
	"10% selection using clustered index":     {{0, 1.26}, {0, 7.27}, {0, 69.60}},
	"single tuple select":                     {{0, 0.15}, {1.08, 0.15}, {0, 0.20}},
}

func sizeIndex(n int) int {
	switch n {
	case 10000:
		return 0
	case 100000:
		return 1
	case 1000000:
		return 2
	}
	return -1
}

func paperOf(table map[string][3][2]float64, row string, n, machine int) float64 {
	si := sizeIndex(n)
	if si < 0 {
		return 0
	}
	return table[row][si][machine]
}

// teraSetup builds a Teradata machine with the two relation versions.
type teraSetup struct {
	m     *teradata.Machine
	heap  *teradata.Relation
	idx   *teradata.Relation
	extra map[string]*teradata.Relation
}

// newTera loads the Teradata reference machine. It is deliberately outside
// the image cache — only two data points per suite use each configuration —
// but its load time still counts as setup.
func newTera(o Options, n int, seed uint64, extras ...relSpec) *teraSetup {
	defer o.addSetup(time.Now())
	s := o.plainSim()
	prm := o.params()
	m := teradata.NewMachine(s, &prm)
	ts := wisconsin.Generate(n, seed)
	setup := &teraSetup{
		m:     m,
		heap:  m.Load("Aheap", rel.Unique1, nil, ts),
		idx:   m.Load("Aidx", rel.Unique1, []rel.Attr{rel.Unique2}, ts),
		extra: map[string]*teradata.Relation{},
	}
	for _, rs := range extras {
		setup.extra[rs.name] = m.Load(rs.name, rel.Unique1, nil, wisconsin.Generate(rs.n, rs.seed))
	}
	return setup
}

func init() {
	register("table1", "Selection queries (Table 1)", runTable1)
}

func runTable1(o Options) *Table {
	t := &Table{
		ID:    "table1",
		Title: "Selection Queries (execution times in seconds)",
		Unit:  "seconds",
	}
	type rowSpec struct {
		label string
		tera  func(ts *teraSetup) float64
		gamma func(g *gammaSetup, n int) float64
	}
	rows := []rowSpec{
		{
			"1% nonindexed selection",
			func(ts *teraSetup) float64 {
				return ts.m.RunSelect(ts.heap, pct(rel.Unique2, ts.heap.N, 1), teradata.FileScan, false).Elapsed.Seconds()
			},
			func(g *gammaSetup, n int) float64 {
				return g.selectSecs(core.SelectQuery{Scan: core.ScanSpec{Rel: g.heap, Pred: pct(rel.Unique2, n, 1), Path: core.PathHeap}})
			},
		},
		{
			"10% nonindexed selection",
			func(ts *teraSetup) float64 {
				return ts.m.RunSelect(ts.heap, pct(rel.Unique2, ts.heap.N, 10), teradata.FileScan, false).Elapsed.Seconds()
			},
			func(g *gammaSetup, n int) float64 {
				return g.selectSecs(core.SelectQuery{Scan: core.ScanSpec{Rel: g.heap, Pred: pct(rel.Unique2, n, 10), Path: core.PathHeap}})
			},
		},
		{
			"1% selection using non-clustered index",
			func(ts *teraSetup) float64 {
				return ts.m.RunSelect(ts.idx, pct(rel.Unique2, ts.idx.N, 1), teradata.IndexScan, false).Elapsed.Seconds()
			},
			func(g *gammaSetup, n int) float64 {
				return g.selectSecs(core.SelectQuery{Scan: core.ScanSpec{Rel: g.idx, Pred: pct(rel.Unique2, n, 1), Path: core.PathNonClustered}})
			},
		},
		{
			"10% selection using non-clustered index",
			func(ts *teraSetup) float64 {
				// The Teradata optimizer correctly declines the index (§5.1).
				return ts.m.RunSelect(ts.idx, pct(rel.Unique2, ts.idx.N, 10), teradata.FileScan, false).Elapsed.Seconds()
			},
			func(g *gammaSetup, n int) float64 {
				// Gamma's optimizer picks a segment scan too (§5.2.1).
				return g.selectSecs(core.SelectQuery{Scan: core.ScanSpec{Rel: g.idx, Pred: pct(rel.Unique2, n, 10), Path: core.PathHeap}})
			},
		},
		{
			"1% selection using clustered index",
			nil,
			func(g *gammaSetup, n int) float64 {
				return g.selectSecs(core.SelectQuery{Scan: core.ScanSpec{Rel: g.idx, Pred: pct(rel.Unique1, n, 1), Path: core.PathClustered}})
			},
		},
		{
			"10% selection using clustered index",
			nil,
			func(g *gammaSetup, n int) float64 {
				return g.selectSecs(core.SelectQuery{Scan: core.ScanSpec{Rel: g.idx, Pred: pct(rel.Unique1, n, 10), Path: core.PathClustered}})
			},
		},
		{
			"single tuple select",
			func(ts *teraSetup) float64 {
				return ts.m.RunSelect(ts.idx, rel.Eq(rel.Unique1, int32(ts.idx.N/2)), teradata.HashAccess, true).Elapsed.Seconds()
			},
			func(g *gammaSetup, n int) float64 {
				return g.selectSecs(core.SelectQuery{
					Scan:   core.ScanSpec{Rel: g.idx, Pred: rel.Eq(rel.Unique1, int32(n/2)), Path: core.PathClustered},
					ToHost: true,
				})
			},
		},
	}

	// Each relation size is an independent pair of machines — fan them out.
	perSize := parMap(o, len(o.Sizes), func(i int) map[string][2]Cell {
		n := o.Sizes[i]
		ts := newTera(o, n, 1)
		g := newGamma(o, 8, 8, n, 1)
		cells := map[string][2]Cell{}
		for _, r := range rows {
			tv := 0.0
			if r.tera != nil {
				tv = r.tera(ts)
			}
			gv := r.gamma(g, n)
			cells[r.label] = [2]Cell{
				{Measured: tv, Paper: paperOf(paperTable1, r.label, n, 0)},
				{Measured: gv, Paper: paperOf(paperTable1, r.label, n, 1)},
			}
		}
		return cells
	})
	measured := map[string][]Cell{}
	for i, n := range o.Sizes {
		t.Columns = append(t.Columns, fmt.Sprintf("%d Tera", n), fmt.Sprintf("%d Gamma", n))
		for _, r := range rows {
			c := perSize[i][r.label]
			measured[r.label] = append(measured[r.label], c[0], c[1])
		}
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, Row{Label: r.label, Cells: measured[r.label]})
	}
	t.Notes = append(t.Notes,
		"Gamma: 8 disk + 8 diskless processors, 4 KB pages; Teradata: 4 IFP / 20 AMP / 40 DSU.",
		"Teradata has no clustered indices (§3); those rows are Gamma-only, as in the paper.")
	return t
}
