package main

import (
	"fmt"
	"sort"
	"time"

	"gamma/internal/core"
	"gamma/internal/rel"
)

// answer is a query result reduced to its cardinality and an
// order-independent checksum of its tuples.
type answer struct {
	count int
	sum   uint64
}

func tupleHash(t rel.Tuple) uint64 {
	h := uint64(0xCBF29CE484222325)
	for _, v := range t.A {
		h = (h ^ uint64(uint32(v))) * 0x100000001B3
	}
	return mix(h, 0)
}

func answerOf(ts []rel.Tuple) answer {
	a := answer{count: len(ts)}
	for _, t := range ts {
		a.sum += tupleHash(t)
	}
	return a
}

// selectAnswer is the expected result of a selection.
func selectAnswer(ts []rel.Tuple, p rel.Pred) answer {
	var a answer
	for _, t := range ts {
		if p.Match(t) {
			a.count++
			a.sum += tupleHash(t)
		}
	}
	return a
}

// joinTuples is the expected output of one hash-join stage: each probe
// tuple matching pp, once per build tuple matching bp with an equal join
// value. Gamma's join operators emit the probe tuple.
func joinTuples(build []rel.Tuple, bp rel.Pred, battr rel.Attr, probe []rel.Tuple, pp rel.Pred, pattr rel.Attr) []rel.Tuple {
	matches := map[int32]int{}
	for _, t := range build {
		if bp.Match(t) {
			matches[t.Get(battr)]++
		}
	}
	var out []rel.Tuple
	for _, t := range probe {
		if !pp.Match(t) {
			continue
		}
		for i := matches[t.Get(pattr)]; i > 0; i-- {
			out = append(out, t)
		}
	}
	return out
}

// sortedValues returns an attribute's values in ascending order.
func sortedValues(ts []rel.Tuple, a rel.Attr) []int32 {
	vs := make([]int32, len(ts))
	for i, t := range ts {
		vs[i] = t.Get(a)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// countRange counts sorted values in [lo, hi].
func countRange(sorted []int32, lo, hi int32) int {
	return sort.Search(len(sorted), func(i int) bool { return sorted[i] > hi }) -
		sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo })
}

// checkResult compares a query's answer with the expected one; a stored
// result relation is compared tuple for tuple.
func (rc *roundCtx) checkResult(res core.Result, want answer, stored bool) error {
	if res.Err != nil {
		return fmt.Errorf("query error: %w", res.Err)
	}
	if res.Tuples != want.count {
		return fmt.Errorf("%d result tuples, want %d", res.Tuples, want.count)
	}
	if !stored {
		return nil
	}
	r, ok := rc.m.Relation(res.ResultName)
	if !ok {
		return fmt.Errorf("result relation %q missing", res.ResultName)
	}
	if got := answerOf(r.AllTuples()); got != want {
		return fmt.Errorf("result relation holds %d tuples with checksum %016x, want %d with %016x",
			got.count, got.sum, want.count, want.sum)
	}
	return nil
}

// updateKind is one of the Table 3 single-tuple updates.
type updateKind int

const (
	appendHeap updateKind = iota
	appendIndexed
	deleteKey
	modifyKey
	modifyNonIndexed
	modifyIndexed
	nUpdateKinds
)

// updateLabels are the paper's Table 3 row labels.
var updateLabels = [nUpdateKinds]string{
	"append 1 tuple (no indices exist)",
	"append 1 tuple (one index exists)",
	"delete 1 tuple",
	"modify 1 tuple (key attribute)",
	"modify 1 tuple (non-indexed attribute)",
	"modify 1 tuple (non-clustered index used)",
}

// mirror is an in-memory replica of one relation, keyed by unique1, that
// replays the planned updates.
type mirror struct {
	byKey map[int32]rel.Tuple
	keys  []int32 // live unique1 values, for drawing victims
	pos   map[int32]int
	sum   uint64
}

func newMirror(ts []rel.Tuple) *mirror {
	m := &mirror{byKey: make(map[int32]rel.Tuple, len(ts)), pos: make(map[int32]int, len(ts))}
	for _, t := range ts {
		m.put(t)
	}
	return m
}

func (m *mirror) put(t rel.Tuple) {
	k := t.Get(rel.Unique1)
	m.byKey[k] = t
	m.pos[k] = len(m.keys)
	m.keys = append(m.keys, k)
	m.sum += tupleHash(t)
}

func (m *mirror) remove(k int32) rel.Tuple {
	t := m.byKey[k]
	i := m.pos[k]
	last := m.keys[len(m.keys)-1]
	m.keys[i], m.pos[last] = last, i
	m.keys = m.keys[:len(m.keys)-1]
	delete(m.byKey, k)
	delete(m.pos, k)
	m.sum -= tupleHash(t)
	return t
}

func (m *mirror) answer() answer { return answer{len(m.byKey), m.sum} }

// plannedUpdate is one update with the relation's cardinality after it.
type plannedUpdate struct {
	kind  updateKind
	q     core.UpdateQuery // Rel is bound at run time
	count int
}

// updatePlan is a sequence of updates to Aheap and Aidx with the answers a
// replay on mirrors of the two relations expects.
type updatePlan struct {
	ups               []plannedUpdate
	heapWant, idxWant answer // the relations' contents after the last update
}

// planUpdates plans one update of each listed kind, drawing victims and
// values from r, and replays them on mirrors of the relations.
func planUpdates(r *rng, heapTuples, idxTuples []rel.Tuple, kinds []updateKind) *updatePlan {
	heap, idx := newMirror(heapTuples), newMirror(idxTuples)
	fresh := int32(2 * paperN) // above every generated value
	freshKey := func() int32 {
		fresh++
		return fresh
	}
	p := &updatePlan{}
	for _, k := range kinds {
		u := plannedUpdate{kind: k}
		switch k {
		case appendHeap, appendIndexed:
			var t rel.Tuple
			key := freshKey()
			t.Set(rel.Unique1, key)
			t.Set(rel.Unique2, key)
			u.q = core.UpdateQuery{Kind: core.AppendTuple, Tuple: t}
			if k == appendHeap {
				heap.put(t)
			} else {
				idx.put(t)
			}
		default:
			victim := idx.keys[r.intn(len(idx.keys))]
			t := idx.remove(victim)
			switch k {
			case deleteKey:
				u.q = core.UpdateQuery{Kind: core.DeleteByKey, Key: victim}
			case modifyKey:
				u.q = core.UpdateQuery{Kind: core.ModifyKeyAttr, Key: victim, Attr: rel.Unique1, NewValue: freshKey()}
			case modifyNonIndexed:
				u.q = core.UpdateQuery{Kind: core.ModifyNonIndexed, Key: victim, Attr: rel.OddOnePercent, NewValue: int32(r.intn(200))}
			case modifyIndexed:
				u.q = core.UpdateQuery{Kind: core.ModifyIndexed, Key: t.Get(rel.Unique2), Attr: rel.Unique2, NewValue: freshKey()}
			}
			if k != deleteKey {
				t.Set(u.q.Attr, u.q.NewValue)
				idx.put(t)
			}
		}
		u.count = len(idx.byKey)
		if k == appendHeap {
			u.count = len(heap.byKey)
		}
		p.ups = append(p.ups, u)
	}
	p.heapWant, p.idxWant = heap.answer(), idx.answer()
	return p
}

// run executes the planned updates, checking each one's changed count and
// the relation's cardinality, then probes every updated key at once by
// comparing both relations with the replay.
func (p *updatePlan) run(rc *roundCtx) {
	heap, idx := rc.rel("Aheap"), rc.rel("Aidx")
	for _, u := range p.ups {
		q, label := u.q, updateLabels[u.kind]
		q.Rel = idx
		if u.kind == appendHeap {
			q.Rel = heap
		}
		var res core.Result
		rc.op(classUpdate, label, 1, func() { res = rc.m.RunUpdate(q) }, func() error {
			rc.result(label, res)
			switch {
			case res.Err != nil:
				return fmt.Errorf("update error: %w", res.Err)
			case res.Tuples != 1:
				return fmt.Errorf("changed %d tuples, want 1", res.Tuples)
			case q.Rel.Count() != u.count:
				return fmt.Errorf("%s holds %d tuples, want %d", q.Rel.Name, q.Rel.Count(), u.count)
			}
			return nil
		})
	}
	start := time.Now()
	for _, c := range []struct {
		r    *core.Relation
		want answer
	}{{heap, p.heapWant}, {idx, p.idxWant}} {
		if got, want := answerOf(c.r.AllTuples()), c.want; got != want {
			rc.b.fault("round %d: %s holds %d tuples with checksum %016x after the updates, replay has %d with %016x",
				rc.run, c.r.Name, got.count, got.sum, want.count, want.sum)
		}
	}
	rc.b.spans.add(rc.run, "check", start, time.Now())
}
