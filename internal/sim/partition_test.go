package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gamma/internal/trace"
)

// runKernelCluster builds the ring-of-shards model (shared with the kernel
// benchmarks), runs it with the given worker count, and returns the trace
// bytes, the executed-event count, and the final clock. workers == 0 builds
// the model on an unpartitioned simulation — the pre-partitioning kernel.
func runKernelCluster(t testing.TB, nodes, hops, work, workers int) (traceBytes []byte, executed uint64, end Time) {
	t.Helper()
	s := New()
	if workers > 0 {
		s.Partition(kernelLookahead)
		s.SetWorkers(workers)
	}
	col := trace.NewCollector()
	s.SetSink(col)
	buildKernelCluster(s, nodes, hops, work)
	end = s.Run()
	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes(), s.Executed(), end
}

// TestPartitionedTraceByteIdentity is the headline oracle: the partitioned
// kernel must produce byte-identical trace streams, event counts, and final
// clocks at every worker count, with the serialized run (workers=1) as the
// reference. Run under -race in CI at several GOMAXPROCS values.
func TestPartitionedTraceByteIdentity(t *testing.T) {
	const nodes, hops, work = 16, 12, 24
	ref, refExec, refEnd := runKernelCluster(t, nodes, hops, work, 1)
	if len(ref) == 0 {
		t.Fatal("reference run emitted no trace")
	}
	for _, workers := range []int{2, 4, 8} {
		got, exec, end := runKernelCluster(t, nodes, hops, work, workers)
		if exec != refExec {
			t.Errorf("workers=%d: executed %d events, serialized executed %d", workers, exec, refExec)
		}
		if end != refEnd {
			t.Errorf("workers=%d: final clock %v, serialized %v", workers, end, refEnd)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("workers=%d: trace differs from serialized run (%d vs %d bytes)", workers, len(got), len(ref))
		}
	}
}

// TestPartitionedDeterminism runs the same parallel configuration twice;
// the traces must be byte-identical run-to-run, not just mode-to-mode.
func TestPartitionedDeterminism(t *testing.T) {
	a, _, _ := runKernelCluster(t, 16, 12, 24, 4)
	b, _, _ := runKernelCluster(t, 16, 12, 24, 4)
	if !bytes.Equal(a, b) {
		t.Error("two identical parallel runs produced different traces")
	}
}

// TestZeroLookaheadMatchesUnpartitioned: with lookahead 0 the partitioned
// kernel serializes in global (at, seq) order — the exact pre-partitioning
// kernel. A model built identically on an unpartitioned sim and on a
// partitioned(0) sim with one shard per node must trace byte-identically.
func TestZeroLookaheadMatchesUnpartitioned(t *testing.T) {
	build := func(s *Sim) {
		nshards := 4
		shards := make([]*Shard, nshards)
		for i := range shards {
			shards[i] = s.DefaultShard()
			if s.Partitioned() && i > 0 {
				shards[i] = s.AddShard()
			}
		}
		ress := make([]*Resource, nshards)
		for i, sh := range shards {
			ress[i] = sh.NewResource(fmt.Sprintf("r%d", i))
		}
		// Same-instant cross-shard interaction, legal only at lookahead 0:
		// every process round-robins over every shard's resource.
		for i, sh := range shards {
			i := i
			sh.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < 8; k++ {
					ress[(i+k)%nshards].Use(p, Dur(1+k%3))
				}
			})
		}
	}
	run := func(partition bool) []byte {
		s := New()
		if partition {
			s.Partition(0)
		}
		col := trace.NewCollector()
		s.SetSink(col)
		build(s)
		s.Run()
		var buf bytes.Buffer
		if err := col.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		return buf.Bytes()
	}
	plain := run(false)
	parted := run(true)
	if len(plain) == 0 {
		t.Fatal("unpartitioned run emitted no trace")
	}
	if !bytes.Equal(plain, parted) {
		t.Errorf("partitioned(0) trace differs from unpartitioned (%d vs %d bytes)", len(parted), len(plain))
	}
}

// TestZeroLookaheadIgnoresWorkers: a zero-lookahead partition admits no
// conservative window, so SetWorkers must not change execution (or results).
func TestZeroLookaheadIgnoresWorkers(t *testing.T) {
	run := func(workers int) Time {
		s := New()
		s.Partition(0)
		s.SetWorkers(workers)
		a, b := s.AddShard(), s.AddShard()
		ra, rb := a.NewResource("a"), b.NewResource("b")
		a.Spawn("p", func(p *Proc) {
			ra.Use(p, 5)
			rb.Use(p, 7) // cross-shard at the same instant: needs serialization
		})
		return s.Run()
	}
	if t1, t8 := run(1), run(8); t1 != t8 {
		t.Errorf("zero-lookahead run changed with workers: %v vs %v", t1, t8)
	}
}

// TestLookaheadViolationPanics: a cross-shard send closer than the declared
// lookahead breaks the conservative contract and must panic with a
// diagnostic naming both shards.
func TestLookaheadViolationPanics(t *testing.T) {
	s := New()
	s.Partition(10)
	s.SetWorkers(2)
	a, b := s.AddShard(), s.AddShard()
	a.At(0, func() {
		a.Send(b, a.Now()+5, func() {}) // 5 < lookahead 10
	})
	b.At(0, func() {})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on lookahead violation")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "violates lookahead") {
			t.Fatalf("unexpected panic: %v", msg)
		}
	}()
	s.Run()
}

// TestContextFreeSchedulingPanicsInWindow: Sim.At and friends cannot
// attribute themselves to a shard inside a parallel window; the kernel must
// fail loudly rather than corrupt another shard's heap.
func TestContextFreeSchedulingPanicsInWindow(t *testing.T) {
	s := New()
	s.Partition(10)
	s.SetWorkers(2)
	a := s.AddShard()
	b := s.AddShard()
	a.At(0, func() {
		s.At(100, func() {}) // context-free inside a window
	})
	b.At(0, func() {})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on context-free scheduling inside a window")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "parallel window") {
			t.Fatalf("unexpected panic: %v", msg)
		}
	}()
	s.Run()
}

// TestPartitionedProcessPanicPropagates: a process panic inside a parallel
// window must surface from Run with the same message a serialized run
// produces, whether a single-shard window or a fused group's merged loop
// (runGroupMerged) resumed the process.
func TestPartitionedProcessPanicPropagates(t *testing.T) {
	run := func(workers int, fuseAll bool) (msg string, groups int) {
		s := New()
		defer func() { msg, groups = fmt.Sprint(recover()), len(s.groups) }()
		s.Partition(10)
		s.SetWorkers(workers)
		if fuseAll {
			s.SetFusion(Fusion{InitLevel: -1})
		}
		a, b := s.AddShard(), s.AddShard()
		a.Spawn("boom", func(p *Proc) {
			p.Sleep(5)
			panic("kaboom")
		})
		b.At(0, func() {})
		s.Run()
		return "no panic", 0
	}
	serial, _ := run(1, false)
	parallel, _ := run(2, false)
	fused, groups := run(2, true)
	if !strings.Contains(serial, `process "boom" panicked: kaboom`) {
		t.Fatalf("serialized panic message: %q", serial)
	}
	if serial != parallel {
		t.Errorf("panic message differs: serialized %q, parallel %q", serial, parallel)
	}
	if groups != 1 {
		t.Fatalf("fusion-all run scheduled %d groups, want 1 (every shard fused)", groups)
	}
	if serial != fused {
		t.Errorf("panic message differs: serialized %q, fusion-all %q", serial, fused)
	}
}

// TestPartitionedRunUntil: RunUntil on a partitioned simulation executes
// serialized and advances every shard clock to the deadline.
func TestPartitionedRunUntil(t *testing.T) {
	s := New()
	s.Partition(10)
	s.SetWorkers(4)
	a, b := s.AddShard(), s.AddShard()
	var fired int
	a.At(5, func() { fired++ })
	b.At(50, func() { fired++ })
	if end := s.RunUntil(20); end != 20 {
		t.Fatalf("RunUntil returned %v, want 20", end)
	}
	if fired != 1 {
		t.Fatalf("fired %d events by t=20, want 1", fired)
	}
	if a.Now() != 20 || b.Now() != 20 {
		t.Fatalf("shard clocks %v/%v, want 20/20", a.Now(), b.Now())
	}
	s.Run()
	if fired != 2 {
		t.Fatalf("fired %d events total, want 2", fired)
	}
}
