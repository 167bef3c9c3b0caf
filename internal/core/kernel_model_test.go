package core

import (
	"fmt"
	"testing"

	"gamma/internal/config"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

// modelKernels are the kernels the Gamma model must give one answer on: the
// plain single-heap kernel, and the partition at the network's latency
// floor run serialized and on four workers.
var modelKernels = []struct {
	name string
	mk   func() *sim.Sim
}{
	{"plain", sim.New},
	{"partition-w1", func() *sim.Sim { return partitionedSim(1) }},
	{"partition-w4", func() *sim.Sim { return partitionedSim(4) }},
}

func partitionedSim(workers int) *sim.Sim {
	s := sim.New()
	s.Partition(config.Default().Net.MinLatency)
	s.SetWorkers(workers)
	return s
}

// spawnHeavyMix runs queries that start many operators across nodes — a heap
// and an indexed selection, a Remote join on diskless processors, a
// two-level join, an aggregate and every Table 3 update — on a machine built
// on s, and returns one line per query with its simulated cost and counts.
func spawnHeavyMix(s *sim.Sim) []string {
	prm := config.Default()
	m := NewMachine(s, &prm, 4, 4)
	u1 := rel.Unique1
	a := m.Load(LoadSpec{
		Name: "A", Strategy: Hashed, PartAttr: rel.Unique1,
		ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2},
	}, wisconsin.Generate(2000, 1))
	b := m.Load(LoadSpec{Name: "B", Strategy: Hashed, PartAttr: rel.Unique1}, wisconsin.Generate(2000, 21))
	c := m.Load(LoadSpec{Name: "C", Strategy: Hashed, PartAttr: rel.Unique1}, wisconsin.Generate(200, 22))

	var out []string
	note := func(name string, r Result) {
		out = append(out, fmt.Sprintf("%s: elapsed=%d tuples=%d packets=%d ctl=%d local=%d err=%v",
			name, r.Elapsed, r.Tuples, r.DataPackets, r.CtlMsgs, r.LocalMsgs, r.Err))
		if r.ResultName != "" {
			m.Drop(r.ResultName)
		}
	}
	sel := rel.Between(rel.Unique2, 0, 199)
	note("heap-select", m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: a, Pred: sel, Path: PathHeap}}))
	note("index-select", m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: a, Pred: rel.Between(rel.Unique1, 100, 299), Path: PathClustered}}))
	note("remote-join", m.RunJoin(JoinQuery{
		Build: ScanSpec{Rel: b, Pred: sel}, BuildAttr: rel.Unique2,
		Probe: ScanSpec{Rel: a, Pred: rel.True()}, ProbeAttr: rel.Unique2,
		Mode: Remote,
	}))
	cSpec := ScanSpec{Rel: c, Pred: rel.True()}
	note("two-level-join", m.RunJoin(JoinQuery{
		Build: ScanSpec{Rel: b, Pred: sel}, BuildAttr: rel.Unique2,
		Probe: ScanSpec{Rel: a, Pred: sel}, ProbeAttr: rel.Unique2,
		Build2: &cSpec, Build2Attr: rel.Unique1, Probe2Attr: rel.Unique2,
		Mode: Remote,
	}))
	ten := rel.Ten
	agg := m.RunAgg(AggQuery{Scan: ScanSpec{Rel: a, Pred: rel.True()}, Fn: Sum, Attr: rel.Unique1, GroupBy: &ten, Mode: Remote})
	out = append(out, fmt.Sprintf("aggregate: elapsed=%d tuples=%d groups=%v err=%v", agg.Elapsed, agg.Tuples, agg.Groups, agg.Err))

	var fresh rel.Tuple
	fresh.Set(rel.Unique1, 2007)
	fresh.Set(rel.Unique2, 2007)
	for _, u := range []struct {
		name string
		q    UpdateQuery
	}{
		{"append-heap", UpdateQuery{Rel: b, Kind: AppendTuple, Tuple: fresh}},
		{"append-indexed", UpdateQuery{Rel: a, Kind: AppendTuple, Tuple: fresh}},
		{"delete", UpdateQuery{Rel: a, Kind: DeleteByKey, Key: 2007}},
		{"modify-key", UpdateQuery{Rel: a, Kind: ModifyKeyAttr, Key: 666, Attr: rel.Unique1, NewValue: 2013}},
		{"modify-nonindexed", UpdateQuery{Rel: a, Kind: ModifyNonIndexed, Key: 500, Attr: rel.OddOnePercent, NewValue: 1}},
		{"modify-indexed", UpdateQuery{Rel: a, Kind: ModifyIndexed, Key: 400, Attr: rel.Unique2, NewValue: 2021}},
	} {
		note(u.name, m.RunUpdate(u.q))
	}
	return out
}

// TestModelIndependentOfKernel: the Gamma model has one set of semantics.
// Starting an operator on another node is a network message on every
// kernel, so a spawn-heavy mix reports the same simulated time, tuples,
// packets and messages on the plain kernel and on the latency-floor
// partition at one and four workers.
func TestModelIndependentOfKernel(t *testing.T) {
	ref := spawnHeavyMix(modelKernels[0].mk())
	for _, k := range modelKernels[1:] {
		got := spawnHeavyMix(k.mk())
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("%s differs from %s:\n  got  %s\n  want %s", k.name, modelKernels[0].name, got[i], ref[i])
			}
		}
	}
}
