package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/sim"
)

// relation is one generated relation of a workload's database.
type relation struct {
	spec core.LoadSpec
	n    int
	seed uint64
}

// workload is one benchmark input: a machine geometry, the relations loaded
// into its image, and the round run on every fresh restore of that image.
type workload struct {
	name             string
	nDisk, nDiskless int
	partitioned      bool // partitioned kernel, else the serial kernel
	// tailPct is the percentile query_ms_tail reports: the highest of p50,
	// p75, p90, p95 and p99 with at least ten Run* calls beyond it in a
	// 20-second run on a 2-core host whose run-to-run spread stayed within
	// a third of the metric's bound, or p50 when a run has under 30 calls.
	// p95 on single-user falls on the edge of the slowest joins' samples
	// and p99 on update-mix in the few calls a timer or collection hits;
	// both moved by about 10% between runs. It is fixed per workload so a
	// faster program is not judged at a higher percentile.
	tailPct   float64
	relations func(seed uint64) []relation
	// plan derives one round's queries and their expected answers from the
	// seed and the generated relations.
	plan func(seed uint64, data map[string][]rel.Tuple) func(rc *roundCtx)
}

var workloads = []workload{
	{name: "single-user", nDisk: 8, nDiskless: 8, tailPct: 90, relations: singleUserRelations, plan: planSingleUser},
	{name: "multiuser-shared", nDisk: muDisks, nDiskless: muDisks, tailPct: 75, relations: multiuserRelations, plan: planMultiuser},
	{name: "scale-256", nDisk: scaleNodes, partitioned: true, tailPct: 50, relations: scaleRelations, plan: planScale},
	{name: "update-mix", nDisk: 8, nDiskless: 8, tailPct: 90, relations: updateMixRelations, plan: planUpdateMix},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookupWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

//go:embed paper_gamma_100k.json
var paperJSON []byte

// paperGamma100k maps the paper's Table 1-3 row labels to the published
// Gamma response time in seconds at 100,000 tuples.
var paperGamma100k = func() map[string]float64 {
	var doc struct {
		Rows map[string]float64 `json:"rows"`
	}
	if err := json.Unmarshal(paperJSON, &doc); err != nil {
		panic("perfbench: paper_gamma_100k.json: " + err.Error())
	}
	return doc.Rows
}()

// paperN is the cardinality of the paper's benchmark relations A and B.
const paperN = 100_000

func heapSpec(name string, strategy core.PartStrategy) core.LoadSpec {
	return core.LoadSpec{Name: name, Strategy: strategy, PartAttr: rel.Unique1}
}

// paperA is the paper's relation A in both physical versions: Aheap with no
// index, Aidx clustered on unique1 with a dense index on unique2 (§4).
func paperA(seed uint64) []relation {
	u1 := rel.Unique1
	idx := heapSpec("Aidx", core.Hashed)
	idx.ClusteredIndex = &u1
	idx.NonClusteredIndexes = []rel.Attr{rel.Unique2}
	return []relation{
		{heapSpec("Aheap", core.Hashed), paperN, mix(seed, 1)},
		{idx, paperN, mix(seed, 1)},
	}
}

// ---- single-user: the paper's Tables 1-3, one query at a time ----

func singleUserRelations(seed uint64) []relation {
	return append(paperA(seed),
		relation{heapSpec("Bprime", core.Hashed), paperN / 10, mix(seed, 2)},
		relation{heapSpec("B", core.Hashed), paperN, mix(seed, 3)},
		relation{heapSpec("C", core.Hashed), paperN / 10, mix(seed, 4)},
	)
}

// selection is one planned selection query and its expected answer.
type selection struct {
	label, rel string
	pred       rel.Pred
	path       core.AccessPath
	toHost     bool
	want       answer
}

// run executes the selection as one operation and checks its answer.
func (s selection) run(rc *roundCtx) {
	var res core.Result
	q := core.SelectQuery{Scan: core.ScanSpec{Rel: rc.rel(s.rel), Pred: s.pred, Path: s.path}, ToHost: s.toHost}
	rc.op(classSelect, s.label, 1, func() { res = rc.m.RunSelect(q) }, func() error {
		rc.result(s.label, res)
		return rc.checkResult(res, s.want, !s.toHost)
	})
	rc.drop(res.ResultName)
}

// join is one planned join query and its expected answer.
type join struct {
	label                string
	build, probe, build2 string
	buildPred, probePred rel.Pred
	attr                 rel.Attr
	want                 answer
}

func (j join) run(rc *roundCtx) {
	q := core.JoinQuery{
		Build: core.ScanSpec{Rel: rc.rel(j.build), Pred: j.buildPred, Path: core.PathHeap}, BuildAttr: j.attr,
		Probe: core.ScanSpec{Rel: rc.rel(j.probe), Pred: j.probePred, Path: core.PathHeap}, ProbeAttr: j.attr,
		Mode: core.Remote,
	}
	if j.build2 != "" {
		q.Build2 = &core.ScanSpec{Rel: rc.rel(j.build2), Pred: rel.True(), Path: core.PathHeap}
		q.Build2Attr, q.Probe2Attr = rel.Unique1, j.attr
	}
	var res core.Result
	rc.op(classJoin, j.label, 1, func() { res = rc.m.RunJoin(q) }, func() error {
		rc.result(j.label, res)
		return rc.checkResult(res, j.want, true)
	})
	rc.drop(res.ResultName)
}

// pickRange draws a range on attr covering pct percent of [0, n).
func pickRange(r *rng, attr rel.Attr, n, pct int) rel.Pred {
	width := n * pct / 100
	lo := r.intn(n - width + 1)
	return rel.Between(attr, int32(lo), int32(lo+width-1))
}

func planSingleUser(seed uint64, data map[string][]rel.Tuple) func(*roundCtx) {
	r := &rng{mix(seed, 100)}
	a := data["Aheap"]
	sels := []selection{
		{label: "1% nonindexed selection", rel: "Aheap", pred: pickRange(r, rel.Unique2, paperN, 1), path: core.PathHeap},
		{label: "10% nonindexed selection", rel: "Aheap", pred: pickRange(r, rel.Unique2, paperN, 10), path: core.PathHeap},
		{label: "1% selection using non-clustered index", rel: "Aidx", pred: pickRange(r, rel.Unique2, paperN, 1), path: core.PathNonClustered},
		// The optimizer declines the index at 10% and scans (§5.2.1).
		{label: "10% selection using non-clustered index", rel: "Aidx", pred: pickRange(r, rel.Unique2, paperN, 10), path: core.PathHeap},
		{label: "1% selection using clustered index", rel: "Aidx", pred: pickRange(r, rel.Unique1, paperN, 1), path: core.PathClustered},
		{label: "10% selection using clustered index", rel: "Aidx", pred: pickRange(r, rel.Unique1, paperN, 10), path: core.PathClustered},
		{label: "single tuple select", rel: "Aidx", pred: rel.Eq(rel.Unique1, int32(r.intn(paperN))), path: core.PathClustered, toHost: true},
	}
	for i := range sels {
		sels[i].want = selectAnswer(a, sels[i].pred)
	}
	// Table 2 (§6.1): joinABprime joins all of A with B'; joinAselB puts a
	// 10% selection on B's join attribute, which the optimizer propagates
	// to A; joinCselAselB joins that result with C.
	var joins []join
	for _, av := range []struct {
		name string
		attr rel.Attr
	}{{"non-key join attribute", rel.Unique2}, {"key join attribute", rel.Unique1}} {
		ten := rel.Between(av.attr, 0, paperN/10-1)
		joins = append(joins,
			join{label: "joinABprime, " + av.name, build: "Bprime", probe: "Aheap", buildPred: rel.True(), probePred: rel.True(), attr: av.attr},
			join{label: "joinAselB, " + av.name, build: "B", probe: "Aheap", buildPred: ten, probePred: ten, attr: av.attr},
			join{label: "joinCselAselB, " + av.name, build: "B", probe: "Aheap", build2: "C", buildPred: ten, probePred: ten, attr: av.attr},
		)
	}
	for i, j := range joins {
		out := joinTuples(data[j.build], j.buildPred, j.attr, a, j.probePred, j.attr)
		if j.build2 != "" {
			out = joinTuples(data[j.build2], rel.True(), rel.Unique1, out, rel.True(), j.attr)
		}
		joins[i].want = answerOf(out)
	}
	// Table 3: one update of each kind.
	var kinds []updateKind
	for k := updateKind(0); k < nUpdateKinds; k++ {
		kinds = append(kinds, k)
	}
	ups := planUpdates(r, data["Aheap"], data["Aidx"], kinds)
	return func(rc *roundCtx) {
		for _, s := range sels {
			s.run(rc)
		}
		for _, j := range joins {
			j.run(rc)
		}
		ups.run(rc)
	}
}

// ---- multiuser-shared: a closed loop with shared scans ----

const (
	muDisks       = 4
	muRels        = 4
	muTuples      = 40_000
	muTerminals   = 16
	muPerTerminal = 2
	muRamp        = 5 * sim.Second
)

func multiuserRelations(seed uint64) []relation {
	var rs []relation
	for i := 0; i < muRels; i++ {
		rs = append(rs, relation{heapSpec(fmt.Sprintf("Mu%c", 'A'+i), core.RoundRobin), muTuples, mix(seed, uint64(10+i))})
	}
	return append(rs, relation{heapSpec("MuBprime", core.RoundRobin), muTuples / 10, mix(seed, 20)})
}

func planMultiuser(seed uint64, data map[string][]rel.Tuple) func(*roundCtx) {
	span := muTuples / 100
	u2 := make([][]int32, muRels)
	for i := range u2 {
		u2[i] = sortedValues(data[fmt.Sprintf("Mu%c", 'A'+i)], rel.Unique2)
	}
	joinWant := answerOf(joinTuples(data["MuBprime"], rel.True(), rel.Unique2, data["MuA"], rel.True(), rel.Unique2))
	wlSeed := mix(seed, 30)
	return func(rc *roundCtx) {
		rels := make([]*core.Relation, muRels)
		for i := range rels {
			rels[i] = rc.rel(fmt.Sprintf("Mu%c", 'A'+i))
		}
		bprime := rc.rel("MuBprime")
		want := 0
		spec := core.WorkloadSpec{
			Terminals: muTerminals, PerTerminal: muPerTerminal, Ramp: muRamp, Seed: wlSeed,
			Make: func(term, q int, next func() uint64) core.ConcurrentQuery {
				if term == 0 {
					want += joinWant.count
					return core.ConcurrentQuery{Join: &core.JoinQuery{
						Build: core.ScanSpec{Rel: bprime, Pred: rel.True(), Path: core.PathHeap}, BuildAttr: rel.Unique2,
						Probe: core.ScanSpec{Rel: rels[0], Pred: rel.True(), Path: core.PathHeap}, ProbeAttr: rel.Unique2,
						Mode: core.Remote, MemPerJoinBytes: 64 << 20,
					}}
				}
				i := int(next() % muRels)
				lo := int32(next() % uint64(muTuples-span))
				want += countRange(u2[i], lo, lo+int32(span)-1)
				return core.ConcurrentQuery{Select: &core.SelectQuery{
					Scan:    core.ScanSpec{Rel: rels[i], Pred: rel.Between(rel.Unique2, lo, lo+int32(span)-1), Path: core.PathHeap},
					ToHost:  true,
					Project: []rel.Attr{rel.Unique1},
				}}
			},
		}
		var wr core.WorkloadResult
		rc.op(classWorkload, "workload", muTerminals*muPerTerminal, func() {
			rc.m.EnableSharedScans()
			wr = rc.m.RunWorkload(spec)
		}, func() error {
			rc.workloadResult(wr)
			switch {
			case wr.Failed > 0:
				return fmt.Errorf("%d of %d queries failed", wr.Failed, wr.Queries)
			case wr.Tuples != want:
				return fmt.Errorf("%d result tuples, want %d", wr.Tuples, want)
			}
			return nil
		})
	}
}

// workloadResult records a closed-loop run's exact simulated statistics.
func (rc *roundCtx) workloadResult(wr core.WorkloadResult) {
	fmt.Fprintf(&rc.text, "workload|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n", wr.Queries, wr.Tuples, wr.Elapsed,
		wr.Clean, wr.Degraded, wr.Failed, wr.MaxInFlight, wr.PoolHits, wr.PoolMisses,
		wr.SharedPagesScanned, wr.SharedPagesSaved)
	fmt.Fprintln(&rc.text, wr.Responses)
	rc.queries += wr.Queries
	rc.simElapsed += wr.Elapsed
	rc.pagesSaved += wr.SharedPagesSaved
	rc.maxInFlight = max(rc.maxInFlight, wr.MaxInFlight)
}

// ---- scale-256: 1% selections on a 256-node partitioned kernel ----

const (
	scaleNodes   = 256
	scalePerNode = 1250
	scaleQueries = 2
)

func scaleRelations(seed uint64) []relation {
	return []relation{{heapSpec("S", core.Hashed), scaleNodes * scalePerNode, mix(seed, 40)}}
}

func planScale(seed uint64, data map[string][]rel.Tuple) func(*roundCtx) {
	r := &rng{mix(seed, 400)}
	var sels []selection
	for i := 0; i < scaleQueries; i++ {
		p := pickRange(r, rel.Unique2, scaleNodes*scalePerNode, 1)
		sels = append(sels, selection{label: "scale 1% nonindexed selection", rel: "S", pred: p, path: core.PathHeap,
			want: selectAnswer(data["S"], p)})
	}
	return func(rc *roundCtx) {
		for _, s := range sels {
			s.run(rc)
		}
	}
}

// ---- update-mix: thousands of single-tuple updates ----

const updateMixOps = 2000

// updateMixKinds are the Table 3 updates that keep Aidx's clustered page
// order. An insert into Aidx (an append, or the relocation of a key
// change) overflows a full clustered page, after which every lookup in that
// fragment scans it (wiss.File.Unordered); a few hundred such inserts would
// turn this workload into a scan benchmark. single-user runs those two
// kinds once per round.
var updateMixKinds = []updateKind{appendHeap, deleteKey, modifyNonIndexed, modifyIndexed}

func updateMixRelations(seed uint64) []relation { return paperA(seed) }

func planUpdateMix(seed uint64, data map[string][]rel.Tuple) func(*roundCtx) {
	// The kinds take turns, so every seed runs the same mix; the seed
	// draws the victims and values.
	kinds := make([]updateKind, updateMixOps)
	for i := range kinds {
		kinds[i] = updateMixKinds[i%len(updateMixKinds)]
	}
	return planUpdates(&rng{mix(seed, 500)}, data["Aheap"], data["Aidx"], kinds).run
}
