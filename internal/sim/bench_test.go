package sim

import (
	"fmt"
	"testing"
)

// BenchmarkAfter measures the steady-state schedule/fire cycle: one event
// pushed and popped per iteration. The acceptance bar is zero allocs/op —
// the calendar must not box events or build closures on the hot path.
func BenchmarkAfter(b *testing.B) {
	s := New()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, nop)
		s.Run()
	}
}

// BenchmarkAfterDeep keeps a large pending set in the calendar, exercising
// the 4-ary heap at the depth the multi-user experiments reach.
func BenchmarkAfterDeep(b *testing.B) {
	s := New()
	sh := s.sh0
	nop := func() {}
	for i := 0; i < 4096; i++ {
		s.After(Dur(1+i%97), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(Dur(1+i%97), nop)
		s.fireSerial(sh, sh.events.pop())
	}
	b.StopTimer()
	s.Run()
}

// BenchmarkResourceUse measures a full park/wake round trip through a FIFO
// resource: enqueue, grant, sleep-to-completion, resume. Steady state must
// be zero allocs/op.
func BenchmarkResourceUse(b *testing.B) {
	s := New()
	r := s.NewResource("r")
	s.Spawn("user", func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Use(p, 1)
		}
	})
	s.Run()
}

// BenchmarkWaitQPingPong measures two processes alternating park/wake
// through a pair of wait queues — the mailbox pattern the network and
// operator processes use constantly.
func BenchmarkWaitQPingPong(b *testing.B) {
	s := New()
	ping := s.NewWaitQ("ping")
	pong := s.NewWaitQ("pong")
	s.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Park(p)
			pong.WakeOne()
		}
	})
	s.Spawn("b", func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.WakeOne()
			pong.Park(p)
		}
	})
	s.Run()
}

// BenchmarkSpawn measures a process's whole life: spawn, first resume, one
// Sleep, exit. One op is one process; every 100 processes share a fresh
// simulation, so the per-sim setup is amortized the way an operator-heavy
// query amortizes it.
func BenchmarkSpawn(b *testing.B) {
	const perSim = 100
	body := func(p *Proc) { p.Sleep(1) }
	b.ReportAllocs()
	s := New()
	for i := 0; i < b.N; i++ {
		s.Spawn("p", body)
		if (i+1)%perSim == 0 {
			s.Run()
			s = New()
		}
	}
	s.Run()
}

// TestParkWakeZeroAllocs: a steady park/wake cycle allocates nothing,
// whether it parks in Sleep, queues on a Resource, or parks on a WaitQ and
// is woken by another process. The measured function runs inside the
// process, so each count covers the park, the executor's resume and the
// wake together.
func TestParkWakeZeroAllocs(t *testing.T) {
	const runs = 200
	s := New()
	r := s.NewResource("r")
	ping, pong := s.NewWaitQ("ping"), s.NewWaitQ("pong")
	done := false
	s.Spawn("partner", func(p *Proc) {
		for {
			ping.Park(p)
			if done {
				return
			}
			pong.WakeOne()
		}
	})
	s.Spawn("measured", func(p *Proc) {
		for _, c := range []struct {
			name  string
			cycle func()
		}{
			{"Sleep", func() { p.Sleep(1) }},
			{"Resource.Use", func() { r.Use(p, 1) }},
			{"WaitQ", func() {
				ping.WakeOne()
				pong.Park(p)
			}},
		} {
			if n := testing.AllocsPerRun(runs, c.cycle); n != 0 {
				t.Errorf("%s park/wake cycle: %v allocs, want 0", c.name, n)
			}
		}
		done = true
		ping.WakeOne()
	})
	s.Run()
}

// kernelLookahead is the modeled network latency of the benchmark cluster.
const kernelLookahead = 10 * Microsecond

// buildKernelCluster constructs the partitioned-kernel benchmark model: a
// ring of nodes, one shard each, where every node runs `hops` rounds of a
// burst of `work` chained local events (each charging a CPU Resource)
// followed by one timestamped message to its right neighbor carrying the
// declared lookahead. Shard-local work dominates cross-shard traffic — one
// message per node per lookahead interval — which is the regime the
// conservative window scheduler is built for (and the regime a sharded
// Gamma cluster would be in: exchange packets are rare next to per-tuple
// CPU and disk events).
func buildKernelCluster(s *Sim, nodes, hops, work int) {
	shards := make([]*Shard, nodes)
	cpus := make([]*Resource, nodes)
	for i := 0; i < nodes; i++ {
		sh := s.DefaultShard()
		if s.Partitioned() && i > 0 {
			sh = s.AddShard()
		}
		shards[i] = sh
		cpus[i] = sh.NewResource(fmt.Sprintf("cpu%d", i))
	}
	var hop func(i, remaining int) func()
	hop = func(i, remaining int) func() {
		return func() {
			sh := shards[i]
			n := work
			var step func()
			step = func() {
				cpus[i].UseAsync(1)
				n--
				if n > 0 {
					sh.After(0, step)
				} else if remaining > 0 {
					next := (i + 1) % len(shards)
					sh.Send(shards[next], sh.Now()+kernelLookahead, hop(next, remaining-1))
				}
			}
			step()
		}
	}
	for i := range shards {
		shards[i].At(Time(i%4), hop(i, hops))
	}
}

// benchKernel runs the ring model at a given node count in either kernel
// mode. workers == 0 selects the serial (unpartitioned) oracle kernel.
func benchKernel(b *testing.B, nodes, workers int) {
	const (
		hops = 32
		work = 128
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		if workers > 0 {
			s.Partition(kernelLookahead)
			s.SetWorkers(workers)
		}
		buildKernelCluster(s, nodes, hops, work)
		s.Run()
	}
}

// BenchmarkKernel compares serial vs partitioned Run on the ring model at
// 8/64/256 simulated nodes. The partitioned kernel at >=4 workers must beat
// serial at >=64 nodes (BENCH_6.json records the measured numbers).
func BenchmarkKernel(b *testing.B) {
	for _, nodes := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("serial/nodes=%d", nodes), func(b *testing.B) {
			benchKernel(b, nodes, 0)
		})
		for _, w := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("part/nodes=%d/workers=%d", nodes, w), func(b *testing.B) {
				benchKernel(b, nodes, w)
			})
		}
	}
}
