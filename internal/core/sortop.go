package core

import (
	"container/heap"
	"fmt"

	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wiss"
)

// SortQuery retrieves a relation in sorted order: each disk site runs the
// WiSS external sort utility over its (qualifying) fragment, then streams
// its sorted run to a merge operator that writes the globally ordered result
// to a single site — the "retrieve ... sort by" path built from the sort and
// scan utilities §2 credits to WiSS.
type SortQuery struct {
	Scan       ScanSpec
	By         rel.Attr
	ResultName string
}

// sortedRun announces one site's sorted spool file to the merge operator.
type sortedRun struct {
	site   int
	file   *wiss.File
	owner  *nose.Node
	tuples int
}

// RunSort executes a sorted retrieve.
func (m *Machine) RunSort(q SortQuery) Result {
	scan := m.resolveScan(q.Scan)
	var res Result
	m.runQuery(&res, func(p *sim.Proc, ib *inbox, schedPort *nose.Port) {
		frags := m.mustScanSites(scan)
		mergeNode := m.Disk[0]
		mergePort := mergeNode.NewPort("merge")
		resRel, rerr := m.newResultRelation(q.ResultName, 0)
		if rerr != nil {
			failQuery(rerr)
		}
		res.ResultName = resRel.Name

		// Phase 1: per-site filter + external sort into a local run.
		costs := wiss.SortCosts{
			InstrPerTupleRun:   m.Prm.Engine.InstrPerTupleScan * 3,
			InstrPerTupleMerge: m.Prm.Engine.InstrPerTupleScan,
		}
		for si, frag := range frags {
			m.initOp(p, frag.Node)
			site, fr := si, frag
			m.spawnOn(schedPort, fr.Node, fmt.Sprintf("sort@%d", fr.Node.ID), func(sp *sim.Proc) {
				st := m.StoreOf(fr.Node)
				qual := st.CreateFile("sort.qual")
				ap := qual.NewAppender()
				n := scanFold(sp, m, fr, scan, func(t rel.Tuple) { ap.Append(sp, t) })
				ap.Close(sp)
				run := wiss.SortFile(sp, qual, q.By, m.Prm.Memory.NodeBytes/2, costs)
				st.DropFile(qual)
				nose.SendCtl(sp, fr.Node, schedPort, doneMsg{op: "sort", site: site, produced: n})
				nose.SendCtl(sp, fr.Node, mergePort, sortedRun{site: site, file: run, owner: fr.Node, tuples: n})
			})
		}

		// Phase 2: merge the runs at one site, reading remote run pages
		// over the network, and store the ordered result locally.
		m.initOp(p, mergeNode)
		m.spawnOn(schedPort, mergeNode, fmt.Sprintf("merge@%d", mergeNode.ID), func(mp *sim.Proc) {
			runs := make([]sortedRun, 0, len(frags))
			for len(runs) < len(frags) {
				msg := mergePort.Recv(mp)
				runs = append(runs, msg.Payload.(sortedRun))
			}
			out := resRel.Frags[0].File
			ap := out.NewAppender()
			total := mergeSortedRuns(mp, m, mergeNode, runs, q.By, func(t rel.Tuple) {
				mergeNode.UseCPU(mp, m.Prm.Engine.InstrPerTupleStore)
				ap.Append(mp, t)
			})
			ap.Close(mp)
			out.Sorted, out.SortKey = true, q.By
			for _, r := range runs {
				m.StoreOf(r.owner).DropFile(r.file)
			}
			nose.SendCtl(mp, mergeNode, schedPort, storeDone{op: "merge", site: 0, stored: total})
		})

		ib.mustDones("sort", len(frags))
		res.Tuples = ib.mustStores("merge", 1)[0].stored
	})
	return res
}

// runCursor2 walks one sorted run page by page, paying the owner's drive and
// (for remote runs) the network per page.
type runCursor2 struct {
	run   sortedRun
	page  int
	slot  int
	cache []rel.Tuple
}

func (c *runCursor2) load(p *sim.Proc, m *Machine, reader *nose.Node) bool {
	for c.cache == nil || c.slot >= len(c.cache) {
		if c.page >= c.run.file.Pages() {
			return false
		}
		pg := c.run.file.ReadPage(p, c.page)
		m.Net.TransferBulk(p, c.run.owner, reader, m.Prm.PageBytes)
		c.cache = pg.LiveTuples(nil)
		c.page++
		c.slot = 0
	}
	return true
}

type runHeap struct {
	cs []*runCursor2
	by rel.Attr
}

func (h runHeap) Len() int { return len(h.cs) }
func (h runHeap) Less(i, j int) bool {
	return h.cs[i].cache[h.cs[i].slot].Get(h.by) < h.cs[j].cache[h.cs[j].slot].Get(h.by)
}
func (h runHeap) Swap(i, j int) { h.cs[i], h.cs[j] = h.cs[j], h.cs[i] }
func (h *runHeap) Push(x any)   { h.cs = append(h.cs, x.(*runCursor2)) }
func (h *runHeap) Pop() any {
	old := h.cs
	c := old[len(old)-1]
	h.cs = old[:len(old)-1]
	return c
}

// mergeSortedRuns merges the per-site runs in key order, invoking emit for
// every tuple, and returns the total count.
func mergeSortedRuns(p *sim.Proc, m *Machine, reader *nose.Node, runs []sortedRun, by rel.Attr, emit func(rel.Tuple)) int {
	h := &runHeap{by: by}
	for _, r := range runs {
		c := &runCursor2{run: r}
		if c.load(p, m, reader) {
			h.cs = append(h.cs, c)
		}
	}
	heap.Init(h)
	total := 0
	for h.Len() > 0 {
		c := h.cs[0]
		emit(c.cache[c.slot])
		total++
		c.slot++
		if c.load(p, m, reader) {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return total
}
