package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"gamma/internal/rel"
	"gamma/internal/wisconsin"
)

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  int
	}{
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "gamma/internal/sim.(*Proc).park"}, bucketHandoff},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m"}, bucketHandoff},
		{[]string{"gamma/internal/sim.(*eventHeap).pop", "gamma/internal/sim.(*Sim).runSerial"}, bucketKernel},
		{[]string{"runtime.mallocgc", "gamma/internal/wiss.(*File).mutPage", "gamma/internal/sim.(*Sim).spawnOn.func1"}, bucketModel},
		// A hand-off function above the first non-runtime frame is not
		// hand-off time.
		{[]string{"gamma/internal/core.(*Machine).RunSelect", "runtime.gopark"}, bucketModel},
		{[]string{"runtime.gcBgMarkWorker"}, bucketOther},
		{nil, bucketOther},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%q) = %d, want %d", c.stack, got, c.want)
		}
	}
}

// TestBucketProfile decodes a real CPU profile of a busy loop.
func TestBucketProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x += len(wisconsin.Generate(1000, uint64(x)))
	}
	pprof.StopCPUProfile()
	p, err := bucketProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, n := range p.buckets {
		sum += n
	}
	if p.total == 0 || sum != p.total {
		t.Fatalf("profile has %d samples, buckets hold %d", p.total, sum)
	}
}

func TestJoinTuplesEmitsProbeTuplePerMatch(t *testing.T) {
	var b1, b2, p1, p2 rel.Tuple
	b1.Set(rel.Unique2, 5)
	b2.Set(rel.Unique2, 5)
	p1.Set(rel.Unique1, 1)
	p1.Set(rel.Unique2, 5)
	p2.Set(rel.Unique1, 2)
	p2.Set(rel.Unique2, 6)
	out := joinTuples([]rel.Tuple{b1, b2}, rel.True(), rel.Unique2, []rel.Tuple{p1, p2}, rel.True(), rel.Unique2)
	if len(out) != 2 || out[0] != p1 || out[1] != p1 {
		t.Fatalf("joinTuples = %v, want p1 twice", out)
	}
}

// TestPlanUpdatesReplay checks the mirror replay against a direct rebuild.
func TestPlanUpdatesReplay(t *testing.T) {
	ts := wisconsin.Generate(1000, 3)
	var kinds []updateKind
	for i := 0; i < 300; i++ {
		kinds = append(kinds, updateKind(i%int(nUpdateKinds)))
	}
	p := planUpdates(&rng{1}, ts, ts, kinds)
	live := map[int32]rel.Tuple{}
	for _, t := range ts {
		live[t.Get(rel.Unique1)] = t
	}
	heapN := len(ts)
	for _, u := range p.ups {
		q := u.q
		switch q.Kind.String() {
		case "append":
			if u.kind == appendHeap {
				heapN++
				if u.count != heapN {
					t.Fatalf("heap count %d, want %d", u.count, heapN)
				}
				continue
			}
			live[q.Tuple.Get(rel.Unique1)] = q.Tuple
		case "delete":
			delete(live, q.Key)
		case "modify-key":
			tu := live[q.Key]
			delete(live, q.Key)
			tu.Set(rel.Unique1, q.NewValue)
			live[q.NewValue] = tu
		case "modify-nonindexed":
			tu := live[q.Key]
			tu.Set(q.Attr, q.NewValue)
			live[q.Key] = tu
		case "modify-indexed":
			for k, tu := range live {
				if tu.Get(rel.Unique2) == q.Key {
					tu.Set(rel.Unique2, q.NewValue)
					live[k] = tu
				}
			}
		}
		if u.count != len(live) {
			t.Fatalf("after %v: count %d, want %d", q.Kind, u.count, len(live))
		}
	}
	var rest []rel.Tuple
	for _, tu := range live {
		rest = append(rest, tu)
	}
	if got := answerOf(rest); got != p.idxWant {
		t.Fatalf("replayed Aidx %+v, plan expects %+v", got, p.idxWant)
	}
}

func TestCountRange(t *testing.T) {
	s := []int32{1, 3, 3, 5, 9}
	if got := countRange(s, 3, 5); got != 3 {
		t.Fatalf("countRange = %d, want 3", got)
	}
	if got := countRange(s, 6, 8); got != 0 {
		t.Fatalf("countRange = %d, want 0", got)
	}
}

func TestHostClockScalesByNeighbouringCalibrations(t *testing.T) {
	h := &hostClock{cals: []time.Duration{4 * time.Millisecond, 6 * time.Millisecond, 10 * time.Millisecond}}
	for _, c := range []struct {
		t    timing
		want time.Duration
	}{
		{timing{100 * time.Millisecond, 0}, 100 * time.Millisecond}, // mean 5 ms = calNominal
		{timing{100 * time.Millisecond, 1}, 62500 * time.Microsecond},
		{timing{100 * time.Millisecond, 2}, 50 * time.Millisecond}, // no calibration after: 10 ms alone
		{timing{100 * time.Millisecond, -1}, 100 * time.Millisecond},
	} {
		if got := h.scaled(c.t); got != c.want {
			t.Errorf("scaled(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	var none *hostClock
	if got := none.scaled(timing{time.Second, 0}); got != time.Second {
		t.Errorf("nil clock scaled 1s to %v", got)
	}
}

func TestHostClockPlanIsFixedByFirstRound(t *testing.T) {
	h := &hostClock{}
	h.calibrate()
	if h.beforeCall(0) {
		t.Fatal("call 0 calibrated right after a calibration")
	}
	h.last = time.Now().Add(-calEvery)
	if !h.beforeCall(1) {
		t.Fatal("call 1 not calibrated calEvery after the last calibration")
	}
	h.planned = true
	h.last = time.Now().Add(-time.Hour)
	if h.beforeCall(0) || !h.beforeCall(1) || h.beforeCall(2) {
		t.Fatal("a planned clock must calibrate before exactly the first round's calls")
	}
}

func TestCalibrateAllocatesLittle(t *testing.T) {
	if n := testing.AllocsPerRun(3, func() { calibrate() }); n > 20 {
		t.Errorf("calibrate allocates %v objects per run, want a handful", n)
	}
}
