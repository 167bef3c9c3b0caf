package bench

import (
	"fmt"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/rel"
)

func init() {
	register("netgen", "Hardware generations: the binding resource migrates as network/CPU/disk evolve", runNetgen)
}

// netgenPoint is one (generation, query) measurement: simulated seconds plus
// the bottleneck classification of the query's trace span.
type netgenPoint struct {
	secs    float64
	binding string
	res     string
	util    float64
}

// bindRank orders resource classes along the migration axis the experiment
// narrates: disk-bound → network-bound → compute/control-bound.
func bindRank(class string) float64 {
	switch class {
	case "disk":
		return 0
	case "nic":
		return 1
	case "ring":
		return 2
	case "cpu":
		return 3
	case "ctl":
		return 4
	}
	return -1
}

// runNetgen sweeps the named hardware generations (1988 Gamma, a
// GbE/SSD-era build, an RDMA-era build) through the Table 1 selections and
// the joinABprime join on the standard 8+8 machine, tracing each query and
// reporting which resource class bound it. The point of the sweep is the
// migration: the 1988 generation saturates its disks on selections and a
// worker CPU on the join (the §6.2 diagnosis); the faster generations
// collapse disk and wire until the host's serialized control/collection
// path is what binds (§5.2/§6.2 extrapolated forward).
func runNetgen(o Options) *Table {
	gens := config.Generations()
	queries := []string{"1% nonindexed selection", "10% nonindexed selection", "joinABprime (Remote)"}
	nQ := len(queries)

	pts := parMap(o, len(gens)*nQ, func(i int) netgenPoint {
		gen, q := gens[i/nQ], i%nQ
		prm := gen.Params()
		po := o
		po.Params = &prm
		n := o.FigureTuples
		g := newGamma(po, 8, 8, n, 1, heapRel("Bprime", n/10, 7))
		g.m.EnableTrace()
		var res core.Result
		switch q {
		case 0:
			res = g.m.RunSelect(core.SelectQuery{Scan: core.ScanSpec{Rel: g.heap, Pred: pct(rel.Unique1, n, 1), Path: core.PathHeap}})
		case 1:
			res = g.m.RunSelect(core.SelectQuery{Scan: core.ScanSpec{Rel: g.heap, Pred: pct(rel.Unique1, n, 10), Path: core.PathHeap}})
		default:
			bp := g.rel("Bprime")
			res = g.m.RunJoin(core.JoinQuery{
				Build: core.ScanSpec{Rel: bp, Pred: rel.True(), Path: core.PathHeap}, BuildAttr: rel.Unique1,
				Probe: core.ScanSpec{Rel: g.heap, Pred: rel.True(), Path: core.PathHeap}, ProbeAttr: rel.Unique1,
				Mode:            core.Remote,
				MemPerJoinBytes: ampleJoinMemory,
			})
		}
		pt := netgenPoint{secs: res.Elapsed.Seconds()}
		if res.Diag != nil {
			pt.binding, pt.res, pt.util = res.Diag.Binding, res.Diag.Res, res.Diag.Util
		}
		return pt
	})

	t := &Table{
		ID:      "netgen",
		Title:   "Binding resource by hardware generation (8+8 processors)",
		Unit:    "seconds (annotation = binding resource class)",
		Columns: queries,
		Metrics: map[string]float64{},
	}
	for gi, gen := range gens {
		row := Row{Label: fmt.Sprintf("%s: %s", gen.Name, gen.Desc)}
		var note string
		for q := range queries {
			pt := pts[gi*nQ+q]
			row.Cells = append(row.Cells, Cell{Measured: pt.secs, Extra: pt.binding})
			if note != "" {
				note += ", "
			}
			note += fmt.Sprintf("%s %s-bound (%s %.0f%%)", queries[q], pt.binding, pt.res, 100*pt.util)
			t.Metrics[fmt.Sprintf("bind_%s_q%d", gen.Name, q)] = bindRank(pt.binding)
		}
		t.Rows = append(t.Rows, row)
		t.Notes = append(t.Notes, gen.Name+": "+note)
	}
	t.Notes = append(t.Notes,
		"Migration: gamma1988 binds on its disks (selections) and a worker CPU (join, §6.2);",
		"faster generations collapse disk and wire, leaving the host's serialized control/collection path binding.")
	return t
}
