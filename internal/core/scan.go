package core

import (
	"fmt"

	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/trace"
	"gamma/internal/wiss"
)

// AccessPath selects how a selection operator reads its fragment.
type AccessPath int

const (
	// PathAuto lets the optimizer choose (see choosePath).
	PathAuto AccessPath = iota
	// PathHeap is a sequential file (segment) scan.
	PathHeap
	// PathClustered scans only the key range through a clustered B-tree.
	PathClustered
	// PathNonClustered probes a dense secondary index and fetches each
	// qualifying tuple's data page individually.
	PathNonClustered
)

func (a AccessPath) String() string {
	switch a {
	case PathHeap:
		return "heap"
	case PathClustered:
		return "clustered-index"
	case PathNonClustered:
		return "non-clustered-index"
	default:
		return "auto"
	}
}

// ScanSpec describes one side of a query: which relation, what predicate,
// and which access path.
type ScanSpec struct {
	Rel  *Relation
	Pred rel.Pred
	Path AccessPath
}

// selectOutput tells a producer operator where its output stream goes.
type selectOutput struct {
	stream     streamID
	ports      []*nose.Port
	route      RouteFn
	filters    []*BitFilter
	filterAttr rel.Attr
	// width is the logical tuple width of the stream (0 = full tuples);
	// project lists the attributes kept when the stream is projected.
	width   int
	project []rel.Attr
}

// doneMsg is the control message an operator sends its scheduler on
// completion (§2: the third of the three control messages).
type doneMsg struct {
	op       string
	site     int
	produced int
}

// spawnSelect starts a selection operator process on the fragment's node.
// routeMaker is called inside the operator to build its split table (so
// round-robin counters are per-operator, as in Gamma).
func spawnSelect(m *Machine, opID string, site int, frag *Fragment, pred rel.Pred, path AccessPath, mkOut func() selectOutput, sched *nose.Port) {
	m.spawnOn(sched, frag.Node, fmt.Sprintf("%s@%d", opID, frag.Node.ID), func(p *sim.Proc) {
		defer reportDriveLoss(m, p, frag.Node, opID, sched)
		p.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KindOpStart, Op: opID, Node: frag.Node.ID, Site: site, Class: path.String()})
		out := mkOut()
		split := newSplitTable(frag.Node, m.Prm, out.stream, out.ports, out.route)
		if out.filters != nil {
			split.setFilters(out.filterAttr, out.filters)
		}
		split.setWidth(out.width)
		split.project = out.project
		n := 0
		switch path {
		case PathHeap:
			if m.scans != nil {
				n = m.scans.scanShared(p, frag, pred, split, opID, site)
			} else {
				n = heapSelect(p, m, frag, pred, split)
			}
		case PathClustered:
			n = clusteredSelect(p, m, frag, pred, split)
		case PathNonClustered:
			n = nonClusteredSelect(p, m, frag, pred, split)
		default:
			panic("core: unresolved access path " + path.String())
		}
		split.close(p)
		p.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KindOpDone, Op: opID, Node: frag.Node.ID, Site: site, N: n})
		nose.SendCtl(p, frag.Node, sched, doneMsg{op: opID, site: site, produced: n})
	})
}

// forEachPage streams every page of f through fn sequentially with one page
// of read-ahead — the single page-iteration loop behind heap selections and
// spool scans.
func forEachPage(p *sim.Proc, f *wiss.File, fn func(pg *wiss.Page)) {
	sc := f.NewScanner()
	for pg := sc.NextPage(p); pg != nil; pg = sc.NextPage(p) {
		fn(pg)
	}
}

// selectPage applies one query's predicate pipeline to one page: it charges
// the per-tuple scan CPU and routes live, qualifying tuples through the
// split table, returning the match count. Both private heap selections and
// shared-scan riders consume pages through this, so per-query instruction
// costs are charged identically either way.
func selectPage(p *sim.Proc, m *Machine, frag *Fragment, pred rel.Pred, split *splitTable, pg *wiss.Page) int {
	frag.Node.UseCPU(p, m.Prm.Engine.InstrPerTupleScan*len(pg.Tuples))
	n := 0
	for s, t := range pg.Tuples {
		if pg.Live(s) && pred.Match(t) {
			n++
			split.send(p, t)
		}
	}
	return n
}

// heapSelect reads every page of the fragment sequentially (with one page of
// read-ahead) and applies the compiled predicate to every tuple.
func heapSelect(p *sim.Proc, m *Machine, frag *Fragment, pred rel.Pred, split *splitTable) int {
	n := 0
	forEachPage(p, frag.File, func(pg *wiss.Page) {
		n += selectPage(p, m, frag, pred, split, pg)
	})
	return n
}

// clusteredSelect descends the clustered B-tree to the first qualifying page
// and scans forward only while tuples can still qualify (§5.1: "only that
// portion of the relation corresponding to the range of the query is
// scanned").
func clusteredSelect(p *sim.Proc, m *Machine, frag *Fragment, pred rel.Pred, split *splitTable) int {
	bt, ok := frag.Indexes[pred.Attr]
	if !ok || bt.Kind != wiss.Clustered {
		panic("core: clustered path without clustered index on " + pred.Attr.String())
	}
	eng := m.Prm.Engine
	start := bt.StartPage(p, pred.Lo)
	earlyStop := !frag.File.Unordered
	if frag.File.Unordered {
		// Overflow inserts appended pages out of key order; the whole
		// file must be visited.
		start = 0
	}
	n := 0
	sc := frag.File.NewScannerAt(start)
	for pg := sc.NextPage(p); pg != nil; pg = sc.NextPage(p) {
		frag.Node.UseCPU(p, eng.InstrPerTupleScan*len(pg.Tuples))
		beyond := true // every live tuple on the page is past the range
		for s, t := range pg.Tuples {
			if !pg.Live(s) {
				continue
			}
			k := t.Get(pred.Attr)
			if k <= pred.Hi {
				beyond = false
			}
			if k >= pred.Lo && k <= pred.Hi {
				n++
				split.send(p, t)
			}
		}
		if earlyStop && beyond {
			break
		}
	}
	return n
}

// nonClusteredSelect walks the dense index's leaf chain over the key range
// and fetches each qualifying tuple's data page individually — in the worst
// case one random I/O per tuple (§5.1).
func nonClusteredSelect(p *sim.Proc, m *Machine, frag *Fragment, pred rel.Pred, split *splitTable) int {
	bt, ok := frag.Indexes[pred.Attr]
	if !ok || bt.Kind != wiss.NonClustered {
		panic("core: non-clustered path without index on " + pred.Attr.String())
	}
	eng := m.Prm.Engine
	n := 0
	bt.RangeRIDs(p, pred.Lo, pred.Hi, func(r wiss.RID) {
		t := frag.File.FetchRID(p, r)
		frag.Node.UseCPU(p, eng.InstrPerTupleScan)
		if !frag.File.Page(int(r.Page)).Live(int(r.Slot)) {
			return // stale entry for a tombstoned slot
		}
		n++
		split.send(p, t)
	})
	return n
}

// spawnSpoolScan starts an operator on `reader` that streams a spool file
// (resident on `owner`, possibly a different node) through a split table —
// the redistribution step of join-overflow resolution (§6.2.2).
func spawnSpoolScan(m *Machine, opID string, site int, file *wiss.File, owner, reader *nose.Node, mkOut func() selectOutput, sched *nose.Port) {
	m.spawnOn(sched, reader, fmt.Sprintf("%s@%d", opID, reader.ID), func(p *sim.Proc) {
		defer reportDriveLoss(m, p, reader, opID, sched)
		p.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KindOpStart, Op: opID, Node: reader.ID, Site: site, Class: "spool-scan"})
		out := mkOut()
		split := newSplitTable(reader, m.Prm, out.stream, out.ports, out.route)
		n := 0
		if file != nil {
			eng := m.Prm.Engine
			forEachPage(p, file, func(pg *wiss.Page) {
				m.Net.TransferBulk(p, owner, reader, m.Prm.PageBytes)
				reader.UseCPU(p, eng.InstrPerTupleScan*len(pg.Tuples))
				for _, t := range pg.Tuples {
					n++
					split.send(p, t)
				}
			})
		}
		split.close(p)
		p.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KindOpDone, Op: opID, Node: reader.ID, Site: site, N: n})
		nose.SendCtl(p, reader, sched, doneMsg{op: opID, site: site, produced: n})
	})
}
