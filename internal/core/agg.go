package core

import (
	"fmt"
	"slices"

	"gamma/internal/nose"
	"gamma/internal/rel"
	"gamma/internal/sim"
)

// AggFn is an aggregate function. §1 of the paper ran aggregate experiments
// but deferred the numbers to [DEWI88]; the operators are implemented here
// in full and benchmarked separately.
type AggFn int

const (
	Count AggFn = iota
	Sum
	Min
	Max
	Avg
)

func (f AggFn) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return "avg"
	}
}

// AggQuery computes fn(attr) over the qualifying tuples of a relation,
// optionally grouped. Scalar aggregates are computed as local partials at
// each scan site and combined on one processor; grouped aggregates hash-
// partition tuples on the grouping attribute across the aggregate
// processors, each of which folds its groups and emits one result tuple per
// group.
type AggQuery struct {
	Scan    ScanSpec
	Fn      AggFn
	Attr    rel.Attr
	GroupBy *rel.Attr
	Mode    JoinMode // which processors run the aggregate operators
}

// AggResult is the outcome of an aggregate query.
type AggResult struct {
	Elapsed sim.Dur
	// Groups maps group value -> aggregate value; scalar queries use the
	// single key 0.
	Groups map[int32]int64
	Tuples int // qualifying input tuples
	// Err is non-nil when the query could not complete (see Result.Err).
	Err error
}

// aggState folds values.
type aggState struct {
	count int64
	sum   int64
	min   int64
	max   int64
}

func (a *aggState) add(v int64) {
	if a.count == 0 {
		a.min, a.max = v, v
	} else {
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	}
	a.count++
	a.sum += v
}

func (a *aggState) merge(b *aggState) {
	if b.count == 0 {
		return
	}
	if a.count == 0 {
		*a = *b
		return
	}
	a.count += b.count
	a.sum += b.sum
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
}

func (a *aggState) value(fn AggFn) int64 {
	switch fn {
	case Count:
		return a.count
	case Sum:
		return a.sum
	case Min:
		return a.min
	case Max:
		return a.max
	default:
		if a.count == 0 {
			return 0
		}
		return a.sum / a.count
	}
}

// aggPartial carries per-site partial aggregates to the combiner.
type aggPartial struct {
	site   int
	groups map[int32]*aggState
	seen   int
}

// aggDone reports the combiner's final result to the scheduler.
type aggDone struct {
	groups map[int32]int64
	seen   int
}

// RunAgg executes an aggregate query.
func (m *Machine) RunAgg(q AggQuery) AggResult {
	scan := m.resolveScan(q.Scan)
	aggNodes, err := m.JoinNodes(q.Mode)
	if err != nil {
		return AggResult{Err: err}
	}
	var out AggResult
	var res Result
	m.runQuery(&res, func(p *sim.Proc, ib *inbox, schedPort *nose.Port) {
		frags := m.mustScanSites(scan)
		if q.GroupBy == nil {
			m.runScalarAgg(p, ib, schedPort, q, scan, frags, aggNodes[0], &out)
		} else {
			m.runGroupedAgg(p, ib, schedPort, q, scan, frags, aggNodes, &out)
		}
	})
	out.Elapsed = res.Elapsed
	out.Err = res.Err
	return out
}

// runScalarAgg: each scan site folds its fragment locally (aggregation is
// pushed below the split table) and sends one partial to the combiner.
func (m *Machine) runScalarAgg(p *sim.Proc, ib *inbox, schedPort *nose.Port, q AggQuery, scan ScanSpec, frags []*Fragment, combiner *nose.Node, out *AggResult) {
	// The combiner is a tiny operator: it receives one control message per
	// scan site and folds the partials.
	m.initOp(p, combiner)
	comboPort := combiner.NewPort("agg-combine")
	nSites := len(frags)
	m.spawnOn(schedPort, combiner, fmt.Sprintf("agg-combine@%d", combiner.ID), func(cp *sim.Proc) {
		total := &aggState{}
		seen := 0
		for i := 0; i < nSites; i++ {
			msg := comboPort.Recv(cp)
			part := msg.Payload.(aggPartial)
			combiner.UseCPU(cp, m.Prm.Engine.InstrPerTupleAgg)
			total.merge(part.groups[0])
			seen += part.seen
		}
		nose.SendCtl(cp, combiner, schedPort, aggDone{groups: map[int32]int64{0: total.value(q.Fn)}, seen: seen})
	})
	for si, frag := range frags {
		m.initOp(p, frag.Node)
		fr, site := frag, si
		m.spawnOn(schedPort, fr.Node, fmt.Sprintf("agg-scan@%d", fr.Node.ID), func(sp *sim.Proc) {
			st := &aggState{}
			seen := scanFold(sp, m, fr, scan, func(t rel.Tuple) { st.add(int64(t.Get(q.Attr))) })
			conn := fr.Node.Dial(comboPort)
			conn.Send(sp, nose.Data, aggPartial{site: site, groups: map[int32]*aggState{0: st}, seen: seen}, m.Prm.TupleBytes)
		})
	}
	done := ib.waitAgg()
	out.Groups = done.groups
	out.Tuples = done.seen
}

// runGroupedAgg: scan sites split qualifying tuples by hash of the grouping
// attribute across the aggregate processors; each processor folds its groups
// and reports them.
func (m *Machine) runGroupedAgg(p *sim.Proc, ib *inbox, schedPort *nose.Port, q AggQuery, scan ScanSpec, frags []*Fragment, aggNodes []*nose.Node, out *AggResult) {
	nA := len(aggNodes)
	ports := make([]*nose.Port, nA)
	for i, nd := range aggNodes {
		ports[i] = nd.NewPort(fmt.Sprintf("agg%d", i))
	}
	groupAttr := *q.GroupBy
	nSites := len(frags)
	for ai, nd := range aggNodes {
		m.initOp(p, nd)
		node, port := nd, ports[ai]
		m.spawnOn(schedPort, nd, fmt.Sprintf("agg@%d", nd.ID), func(ap *sim.Proc) {
			groups := map[int32]*aggState{}
			seen := 0
			recvStream(ap, port, streamStore, nSites, func(ts []rel.Tuple) {
				node.UseCPU(ap, m.Prm.Engine.InstrPerTupleAgg*len(ts))
				for _, t := range ts {
					g := t.Get(groupAttr)
					st := groups[g]
					if st == nil {
						st = &aggState{}
						groups[g] = st
					}
					st.add(int64(t.Get(q.Attr)))
					seen++
				}
			})
			nose.SendCtl(ap, node, schedPort, aggPartial{groups: groups, seen: seen})
		})
	}
	for si, frag := range frags {
		m.initOp(p, frag.Node)
		spawnSelect(m, "agg-select", si, frag, scan.Pred, scan.Path, func() selectOutput {
			return selectOutput{stream: streamStore, ports: ports, route: HashRoute(groupAttr, LoadSeed, nA)}
		}, schedPort)
	}
	ib.mustDones("agg-select", nSites)
	out.Groups = map[int32]int64{}
	for i := 0; i < nA; i++ {
		part := ib.waitAggPartial()
		for g, st := range part.groups {
			out.Groups[g] = st.value(q.Fn)
		}
		out.Tuples += part.seen
	}
}

// sortedGroups returns group keys in order (reporting helper).
func (r AggResult) sortedGroups() []int32 {
	keys := make([]int32, 0, len(r.Groups))
	for k := range r.Groups {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// scanFold runs an access path over a fragment, invoking fold for every
// qualifying tuple, and returns the match count. It is the aggregate
// pushdown path: no split table, no network.
func scanFold(p *sim.Proc, m *Machine, frag *Fragment, scan ScanSpec, fold func(rel.Tuple)) int {
	sink := &foldSink{fold: fold}
	split := &splitTable{node: frag.Node, prm: m.Prm, route: func(t rel.Tuple) int { sink.fold(t); sink.n++; return -1 }}
	switch scan.Path {
	case PathHeap:
		heapSelect(p, m, frag, scan.Pred, split)
	case PathClustered:
		clusteredSelect(p, m, frag, scan.Pred, split)
	case PathNonClustered:
		nonClusteredSelect(p, m, frag, scan.Pred, split)
	default:
		panic("core: unresolved path in scanFold")
	}
	split.chargePending(p)
	return sink.n
}

type foldSink struct {
	fold func(rel.Tuple)
	n    int
}
