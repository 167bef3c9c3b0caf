package bench

// Kernel-equivalence acceptance tests: every experiment must produce
// byte-identical tables, JSON results, and trace streams at any kernel
// worker count. Every Gamma machine runs on a partition whose lookahead is
// the network's delivery-latency floor (Net.MinLatency); one worker is the
// serialized oracle, and more workers run truly parallel conservative
// windows — except on machines that pin themselves to one worker by arming
// faults, failover, healing, shared scans or a multiuser workload. CI runs
// this file under -race across a GOMAXPROCS × workers matrix.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

// kernelVariants is the equivalence matrix: the one-worker oracle, a
// worker budget under the default adaptive fusion, and the worker budget
// under each shard-fusion extreme.
var kernelVariants = []struct {
	name    string
	workers int
	fusion  string
}{
	{"w1", 1, ""},
	{"w4", 4, ""},
	{"w4-unfused", 4, "off"},
	{"w4-fused", 4, "all"},
}

// suiteArtifacts runs a cross-section of experiments at the given worker
// budget and returns the rendered tables and the JSON result document (the
// stable parts of the gammabench -json report: wall-clock fields excluded).
func suiteArtifacts(t *testing.T, workers int, fusion string) (tables, jsonDoc []byte) {
	t.Helper()
	// fig9 exercises joins inside parallel windows, netgen the batched
	// exchange of the fast-network generations, table3 every update
	// operator; degraded, availability and multiuser arm faults, healing
	// and workloads, which pin their machines to one worker.
	ids := []string{"table1", "table3", "fig1", "fig9", "scaleup", "netgen", "degraded", "availability", "multiuser"}
	var exps []Experiment
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	o := tinyOptions()
	o.KernelWorkers = workers
	o.Fusion = fusion
	reports := RunSuite(exps, o, 2)
	var tblBuf bytes.Buffer
	type stable struct {
		ID     string
		Events int64
		Table  *Table
	}
	var doc []stable
	for _, r := range reports {
		r.Table.Render(&tblBuf)
		doc = append(doc, stable{ID: r.ID, Events: r.Events, Table: r.Table})
	}
	js, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	return tblBuf.Bytes(), js
}

// TestKernelEquivalenceSuite: the quick-suite cross-section produces
// byte-identical tables and JSON results on every kernel variant.
func TestKernelEquivalenceSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("suite cross-section is seconds-long; skipped in -short")
	}
	refTables, refJSON := suiteArtifacts(t, kernelVariants[0].workers, kernelVariants[0].fusion)
	for _, v := range kernelVariants[1:] {
		tables, js := suiteArtifacts(t, v.workers, v.fusion)
		if !bytes.Equal(tables, refTables) {
			t.Errorf("%s: rendered tables differ from the one-worker oracle (%d vs %d bytes)",
				v.name, len(tables), len(refTables))
		}
		if !bytes.Equal(js, refJSON) {
			t.Errorf("%s: JSON results differ from the one-worker oracle (%d vs %d bytes)",
				v.name, len(js), len(refJSON))
		}
	}
}

// partitionedSim builds a simulation partitioned at lookahead la on the
// given worker budget and fusion mode.
func partitionedSim(workers int, fusion string, la sim.Dur) *sim.Sim {
	s := sim.New()
	s.Partition(la)
	s.SetWorkers(workers)
	s.SetFusion(Options{Fusion: fusion}.fusionConfig())
	return s
}

// tracedWorkload builds a small traced Gamma machine on s, runs a heap
// selection and an indexed selection, and returns the full trace stream
// bytes.
func tracedWorkload(t *testing.T, s *sim.Sim) []byte {
	t.Helper()
	return tracedWorkloadOn(t, config.Default(), s, nil)
}

// tracedWorkloadOn is tracedWorkload under explicit hardware parameters,
// with an optional hook run after the machine is built (floor-tightness
// tests use it to over-declare a shard's output or channel floor).
func tracedWorkloadOn(t *testing.T, prm config.Params, s *sim.Sim, tweak func(m *core.Machine)) []byte {
	t.Helper()
	m := core.NewMachine(s, &prm, 4, 4)
	u1 := rel.Unique1
	r := m.Load(core.LoadSpec{
		Name: "A", Strategy: core.Hashed, PartAttr: rel.Unique1,
		ClusteredIndex: &u1, NonClusteredIndexes: []rel.Attr{rel.Unique2},
	}, wisconsin.Generate(5000, 1))
	if tweak != nil {
		tweak(m)
	}
	col := m.EnableTrace()
	m.RunSelect(core.SelectQuery{
		Scan: core.ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, 0, 499), Path: core.PathHeap},
	})
	m.RunSelect(core.SelectQuery{
		Scan: core.ScanSpec{Rel: r, Pred: rel.Between(rel.Unique1, 100, 199), Path: core.PathClustered},
	})
	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("traced workload emitted no events")
	}
	return buf.Bytes()
}

// TestKernelEquivalenceTraces: the full structured event stream of a traced
// Gamma workload is byte-identical on every kernel variant — the headline
// invariant of the partitioned kernel — both at lookahead 0 (merged global
// order) and inside truly parallel windows at the latency-floor lookahead.
// At lookahead 0 the reference is the plain unpartitioned kernel.
func TestKernelEquivalenceTraces(t *testing.T) {
	floor := config.Default().Net.MinLatency
	if floor <= 0 {
		t.Fatal("default params declare no latency floor")
	}
	for _, la := range []sim.Dur{0, floor} {
		refName, ref := "plain kernel", tracedWorkload(t, sim.New())
		variants := kernelVariants
		if la > 0 {
			v := kernelVariants[0]
			refName, ref = "one-worker oracle", tracedWorkload(t, partitionedSim(v.workers, v.fusion, la))
			variants = kernelVariants[1:]
		}
		for _, v := range variants {
			got := tracedWorkload(t, partitionedSim(v.workers, v.fusion, la))
			if !bytes.Equal(got, ref) {
				t.Errorf("%s at lookahead %v: trace stream differs from the %s (%d vs %d bytes)",
					v.name, la, refName, len(got), len(ref))
			}
		}
	}
}

// TestLookaheadFloorIsTight: Net.MinLatency is the largest safe lookahead,
// globally and per channel. Running the Gamma model one microsecond above
// the floor must trip the kernel's send-site violation panic — some remote
// delivery really does arrive exactly MinLatency after it was sent — while
// the floor itself runs clean (pinned by every windowed test in this file).
// The output-floor and channel-floor cases prove the same tightness for the
// per-shard declarations: over-declaring the host's output floor, or its
// channel floor toward the scheduler alone, trips the same panic at a
// modest global lookahead. This guards the whole delivery path: a new
// remote interaction that forgets the floor turns into a crash here, not a
// silent misordering.
func TestLookaheadFloorIsTight(t *testing.T) {
	floor := config.Default().Net.MinLatency
	cases := []struct {
		name  string
		la    sim.Dur
		tweak func(m *core.Machine)
	}{
		{"global-lookahead", floor + 1, nil},
		{"output-floor", 100, func(m *core.Machine) {
			m.Host.Part.SetOutFloor(floor + 1)
		}},
		{"channel-floor", 100, func(m *core.Machine) {
			m.Host.Part.SetChannelFloor(m.Sched.Part, floor+1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic running above the latency floor")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "violates lookahead") {
					t.Fatalf("wrong panic: %v", r)
				}
			}()
			tracedWorkloadOn(t, config.Default(), partitionedSim(1, "", tc.la), tc.tweak)
		})
	}
}

// TestKernelEquivalenceGenerations: trace byte-identity holds at every
// hardware generation's own latency floor. The fast generations are the
// hard case the EOT scheduler exists for — rdma's 2µs floor grants almost
// no static window, so nearly every parallel window there comes from
// earliest-output-time bounds and the nose's declared output floors.
func TestKernelEquivalenceGenerations(t *testing.T) {
	if testing.Short() {
		t.Skip("generation matrix is seconds-long; skipped in -short")
	}
	for _, gen := range config.Generations() {
		prm := gen.Params()
		la := prm.Net.MinLatency
		v := kernelVariants[0]
		ref := tracedWorkloadOn(t, prm, partitionedSim(v.workers, v.fusion, la), nil)
		for _, v := range kernelVariants[1:] {
			got := tracedWorkloadOn(t, prm, partitionedSim(v.workers, v.fusion, la), nil)
			if !bytes.Equal(got, ref) {
				t.Errorf("%s on %s: trace stream differs from the one-worker oracle (%d vs %d bytes)",
					v.name, gen.Name, len(got), len(ref))
			}
		}
	}
}

// TestNewSimPartitionsAtLatencyFloor: every Gamma machine's simulation is
// partitioned at the network's delivery-latency floor with the configured
// worker budget, and the Teradata kernel stays unpartitioned.
func TestNewSimPartitionsAtLatencyFloor(t *testing.T) {
	for _, gen := range config.Generations() {
		prm := gen.Params()
		o := Options{Params: &prm, KernelWorkers: 3}
		s := o.newSim()
		if !s.Partitioned() || s.Lookahead() != prm.Net.MinLatency {
			t.Errorf("%s: newSim partitioned=%v lookahead=%v, want the %v latency floor",
				gen.Name, s.Partitioned(), s.Lookahead(), prm.Net.MinLatency)
		}
		if s.Workers() != 3 {
			t.Errorf("%s: workers = %d, want 3", gen.Name, s.Workers())
		}
	}
	if (Options{}).plainSim().Partitioned() {
		t.Error("plainSim is partitioned")
	}
}

// TestFusionKnob: Options.Fusion selects the shard-fusion mode, empty means
// adaptive, and unknown modes panic.
func TestFusionKnob(t *testing.T) {
	if f := (Options{}).fusionConfig(); f != (sim.Fusion{}) {
		t.Errorf("default fusion config = %+v, want adaptive", f)
	}
	if !(Options{Fusion: "off"}).fusionConfig().Off {
		t.Error("Fusion=off ignored")
	}
	if f := (Options{Fusion: "all"}).fusionConfig(); f.Off || f.InitLevel != -1 {
		t.Errorf("Fusion=all: %+v", f)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown fusion mode did not panic")
		}
	}()
	Options{Fusion: "everything"}.fusionConfig()
}
