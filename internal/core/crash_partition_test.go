package core_test

import (
	"testing"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/fault"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

// crashRun is one 10% heap selection on a mirrored 4+0 machine built on s,
// optionally with a node crash armed mid-query, plus the kill-registry size
// of the crashed node just before and just after the crash.
type crashRun struct {
	res           core.Result
	before, after int
}

const (
	crashSite = 1
	crashAt   = sim.Time(300 * sim.Millisecond)
)

func runCrash(t *testing.T, s *sim.Sim, crash bool) crashRun {
	t.Helper()
	prm := config.Default()
	m := core.NewMachine(s, &prm, 4, 0)
	m.EnableMirroring()
	a := m.Load(core.LoadSpec{Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1}, wisconsin.Generate(4000, 1))
	var out crashRun
	if crash {
		fault.Arm(m, fault.Schedule{Injections: []fault.Injection{fault.Crash(crashAt, crashSite)}})
		nd := m.Disk[crashSite]
		nd.Part.At(crashAt-1, func() { out.before = m.RegisteredOps(nd.ID) })
		nd.Part.At(crashAt+1, func() { out.after = m.RegisteredOps(nd.ID) })
	}
	out.res = m.RunSelect(core.SelectQuery{
		Scan: core.ScanSpec{Rel: a, Pred: rel.Between(rel.Unique2, 0, 399), Path: core.PathHeap},
	})
	if out.res.Err != nil {
		t.Fatalf("query failed: %v", out.res.Err)
	}
	return out
}

// TestCrashInsidePartition: a mid-query node crash on the latency-floor
// partition kills the operators in the node's kill registry, the failover
// answer equals the fault-free one, and the run is the same as on the plain
// kernel. Arming the fault pins the four-worker simulation to one worker.
func TestCrashInsidePartition(t *testing.T) {
	partition := func() *sim.Sim {
		s := sim.New()
		s.Partition(config.Default().Net.MinLatency)
		s.SetWorkers(4)
		return s
	}
	ref := runCrash(t, partition(), false)
	s := partition()
	got := runCrash(t, s, true)
	if !s.Pinned() {
		t.Error("arming a fault schedule did not pin the simulation to one worker")
	}
	if got.before == 0 {
		t.Error("no operators registered on the crashing node before the crash")
	}
	if got.after != 0 {
		t.Errorf("%d killed operators still registered after the crash", got.after)
	}
	if got.res.Attempts < 2 {
		t.Errorf("attempts = %d: the crash did not abort the first attempt", got.res.Attempts)
	}
	if got.res.Tuples != ref.res.Tuples {
		t.Errorf("degraded answer %d tuples, fault-free %d", got.res.Tuples, ref.res.Tuples)
	}
	plain := runCrash(t, sim.New(), true)
	if got.res.Tuples != plain.res.Tuples || got.res.Elapsed != plain.res.Elapsed {
		t.Errorf("partition: %d tuples in %v; plain kernel: %d tuples in %v",
			got.res.Tuples, got.res.Elapsed, plain.res.Tuples, plain.res.Elapsed)
	}
}
