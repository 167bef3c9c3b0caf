package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"gamma/internal/config"
	"gamma/internal/core"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

// setupReps is how many times a run generates, loads and images its
// database; setup_s is the median. Every repetition uses fresh relation
// seeds, so each one pays wisconsin.Generate's first-call cost.
const setupReps = 9

// minRounds is the fewest rounds a measured phase runs, however short.
const minRounds = 3

// outDir holds the span and digest files a run writes, inside the checkout.
const outDir = ".bench_build/perfbench"

// bench is one run of one workload.
type bench struct {
	w     *workload
	seed  uint64
	snap  *core.Snapshot
	round func(rc *roundCtx)
	clock *hostClock // nil while a CPU profile is taken

	setups []setupTiming

	attempted, failed int
	faults            []string // first check failures, for standard error
	digest            uint64   // round 0's simulated-statistics digest
	digestText        []byte
	notes             []string

	enableTrace bool     // Machine.EnableTrace on every restored machine
	spans       *spanLog // non-nil while spans are recorded
}

// fault records a failed check that is not a single operation's answer.
func (b *bench) fault(format string, args ...any) {
	if len(b.faults) < 20 {
		b.faults = append(b.faults, fmt.Sprintf(format, args...))
	}
}

// setup generates, loads and images the workload's database and plans its
// round. It is set-up repetition 0: its relation seeds are the workload's.
func (b *bench) setup() {
	snap, data := b.build(b.seed)
	b.snap, b.round = snap, b.w.plan(b.seed, data)
}

// moreSetups repeats the set-up with fresh relation seeds, so setup_s is a
// median and every repetition pays wisconsin.Generate's first-call cost.
// It runs after the measured phase so the extra images, which the
// generator's memo keeps alive, stay out of mem_peak_mb.
func (b *bench) moreSetups() {
	for rep := 1; rep < setupReps; rep++ {
		b.build(mix(b.seed, uint64(rep)))
	}
	b.clock.calibrate()
}

// The parts of a set-up's host time.
const (
	setupGen = iota
	setupLoad
	setupSnap
	setupTotal
	nSetupParts
)

// setupTiming is one set-up's host times, all after the same calibration.
type setupTiming struct {
	parts [nSetupParts]time.Duration
	cal   int
}

// setupS is one part of every set-up's host time at nominal host speed, in
// seconds.
func (b *bench) setupS(part int) []float64 {
	var out []float64
	for _, st := range b.setups {
		out = append(out, b.clock.scaled(timing{st.parts[part], st.cal}).Seconds())
	}
	return out
}

// build is one timed set-up: generate the relations, load them, take the
// image.
func (b *bench) build(seed uint64) (*core.Snapshot, map[string][]rel.Tuple) {
	runtime.GC()
	b.clock.calibrate()
	cal := b.clock.latest()
	start := time.Now()
	var gen, load time.Duration
	prm := config.Default()
	m := core.NewMachine(sim.New(), &prm, b.w.nDisk, b.w.nDiskless)
	data := map[string][]rel.Tuple{}
	for _, r := range b.w.relations(seed) {
		t0 := time.Now()
		ts := wisconsin.Generate(r.n, r.seed)
		t1 := time.Now()
		m.Load(r.spec, ts)
		load += time.Since(t1)
		gen += t1.Sub(t0)
		data[r.spec.Name] = ts
	}
	t2 := time.Now()
	snap := m.Snapshot()
	end := time.Now()
	b.setups = append(b.setups, setupTiming{[nSetupParts]time.Duration{gen, load, end.Sub(t2), end.Sub(start)}, cal})
	return snap, data
}

// newSim builds the simulation a round restores onto: the plain serial
// kernel, or the partitioned kernel as gammabench -kernel partitioned sets
// it up (lookahead Net.MinLatency, adaptive fusion) with the given workers.
func (b *bench) newSim(workers int) *sim.Sim {
	s := sim.New()
	if b.w.partitioned {
		s.Partition(config.Default().Net.MinLatency)
		s.SetWorkers(workers)
		s.SetFusion(sim.Fusion{})
	}
	return s
}

// phase is the outcome of a sequence of rounds.
type phase struct {
	rounds []*roundCtx
	wall   time.Duration // host time from the first round's start to the last's end
}

// runRounds runs rounds until d has elapsed (at least minRounds). Every
// round must reproduce round 0's simulated statistics exactly.
func (b *bench) runRounds(d time.Duration) phase {
	var p phase
	start := time.Now()
	for len(p.rounds) < minRounds || time.Since(start) < d {
		// Every round starts from the same collected heap, so its garbage
		// collections and peak memory repeat from round to round. The
		// calibration follows the collection, so no collection cycle the
		// last round started runs beside it.
		gcStart := time.Now()
		runtime.GC()
		calStart := time.Now()
		b.clock.calibrate()
		b.spans.add(len(p.rounds), "gc", gcStart, calStart)
		b.spans.add(len(p.rounds), "calibrate", calStart, time.Now())
		rc := b.play(b.newSim(kernelWorkers()), len(p.rounds))
		if b.clock != nil {
			b.clock.planned = true
		}
		if rc.sum != b.digest {
			b.fault("round %d simulated-statistics digest %016x differs from round 0's %016x", rc.run, rc.sum, b.digest)
		}
		p.rounds = append(p.rounds, rc)
	}
	p.wall = time.Since(start)
	// Close the last round's calls with a calibration after them.
	b.clock.calibrate()
	return p
}

// play restores a fresh machine from the image onto s and runs one round.
// The first round played becomes the digest reference. The machine and the
// statistics text are released afterwards; the digest stays.
func (b *bench) play(s *sim.Sim, run int) *roundCtx {
	rc := &roundCtx{b: b, run: run}
	s.SetEventCounter(&rc.events)
	rc.restore(s)
	if rc.m != nil {
		b.round(rc)
		rc.finish()
	}
	b.attempted += rc.attempted
	b.failed += rc.failed
	h := fnv.New64a()
	h.Write(rc.text.Bytes())
	rc.sum = h.Sum64()
	if b.digestText == nil {
		b.digestText, b.digest = rc.text.Bytes(), rc.sum
	}
	rc.m, rc.text = nil, bytes.Buffer{}
	return rc
}

// timedRun is the untraced end-to-end run.
func (b *bench) timedRun(d time.Duration) map[string]metric {
	p := b.runRounds(d)
	var roundS, rawS, queryMS, simS, paperLn []float64
	queries := 0
	for _, rc := range p.rounds {
		paperLn = append(paperLn, rc.paperLn...)
		roundS = append(roundS, rc.programTime().Seconds())
		rawS = append(rawS, rc.rawProgramTime().Seconds())
		for _, c := range rc.calls {
			if c.class.query() {
				queryMS = append(queryMS, ms(b.clock.scaled(c.t)))
			}
		}
		simS = append(simS, rc.simElapsed.Seconds())
		queries += rc.queries
	}
	memPeak := peakRSSMB()
	b.moreSetups()
	b.note("host speed: calibration median %.3f ms (nominal %.3f ms, %d calibrations); wall_s as measured %.6f s, at nominal speed %.6f s",
		ms(b.calMedian()), ms(calNominal), len(b.clock.cals), median(rawS), median(roundS))
	pct := b.w.tailPct
	beyond := int(float64(len(queryMS)) * (100 - pct) / 100)
	b.note("query_ms_tail is p%g of %d Run* calls, %d beyond it; %d rounds", pct, len(queryMS), beyond, len(p.rounds))
	if beyond < 10 {
		b.note("warning: fewer than ten samples beyond p%g; the run is too short for this tail", pct)
	}
	if len(paperLn) > 0 {
		b.note("paper_err %.6f ln over %d queries with a published Gamma 100k time (per-layer core.paper_err; calibration targets, a drift guard)",
			mean(paperLn), len(paperLn))
	} else {
		b.note("paper_err does not apply: no query of this workload has a published Gamma 100k time")
	}
	b.writeDigest()
	return map[string]metric{
		"setup_s":       {median(b.setupS(setupTotal)), "s"},
		"wall_s":        {median(roundS), "s"},
		"query_ms_p50":  {median(queryMS), "ms"},
		"query_ms_tail": {quantile(queryMS, pct/100), "ms"},
		"mem_peak_mb":   {memPeak, "MB"},
		"sim_qps":       {float64(queries) / sum(simS), "1/s"},
	}
}

// tracedRun is the per-layer run. It spends a third of d in each of three
// passes: rounds with call spans, rounds under a CPU profile, and rounds
// with Machine.EnableTrace; trace.overhead compares the first and last.
func (b *bench) tracedRun(d time.Duration) map[string]metric {
	b.spans = &spanLog{}
	mset := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
	}
	runtime.GC()
	m0 := readMetrics(mset)
	plain := b.runRounds(d / 3)
	m1 := readMetrics(mset)
	spans := b.spans
	b.spans = nil

	// The calibration's own hand-off would land in the profile's buckets,
	// and this pass's times are not reported, so it runs uncalibrated.
	clock := b.clock
	b.clock = nil
	prof, err := profileRounds(func() { b.runRounds(d / 3) })
	b.clock = clock
	if err != nil {
		b.fault("cpu profile: %v", err)
	}
	b.enableTrace = true
	traced := b.runRounds(d / 3)
	b.enableTrace = false

	b.moreSetups()
	out := layerMetrics(plain.rounds)
	roundsN := float64(len(plain.rounds))
	events := 0.0
	for _, rc := range plain.rounds {
		events += float64(rc.events.Load())
	}
	out["go.alloc_mb"] = metric{(m1[0] - m0[0]) / roundsN / (1 << 20), "MB"}
	out["go.allocs_per_event"] = metric{ratio(m1[1]-m0[1], events), "count"}
	out["go.gc_cpu"] = metric{ratio(m1[2]-m0[2], m1[3]-m0[3]), "share"}
	out["sim.handoff_cpu"] = metric{prof.share(bucketHandoff), "share"}
	out["sim.kernel_cpu"] = metric{prof.share(bucketKernel), "share"}
	out["core.model_cpu"] = metric{prof.share(bucketModel), "share"}
	out["setup.generate_ms"] = metric{1000 * median(b.setupS(setupGen)), "ms"}
	out["setup.load_ms"] = metric{1000 * median(b.setupS(setupLoad)), "ms"}
	out["setup.snapshot_ms"] = metric{1000 * median(b.setupS(setupSnap)), "ms"}
	out["host.cal_ms"] = metric{ms(b.calMedian()), "ms"}

	trEvents := 0.0
	var plainS, tracedS []float64
	for _, rc := range traced.rounds {
		trEvents += float64(rc.traceEvents)
		tracedS = append(tracedS, rc.programTime().Seconds())
	}
	for _, rc := range plain.rounds {
		plainS = append(plainS, rc.programTime().Seconds())
	}
	out["trace.events"] = metric{trEvents / float64(len(traced.rounds)), "count"}
	out["trace.overhead"] = metric{median(tracedS)/median(plainS) - 1, "share"}
	out["trace.uncovered"] = metric{spans.uncovered(plain.wall), "share"}
	b.note("cpu profile: %d samples; traced pass %d rounds, plain pass %d rounds", prof.total, len(traced.rounds), len(plain.rounds))
	if err := spans.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.seed))); err != nil {
		b.fault("writing spans: %v", err)
	}
	b.writeDigest()
	return out
}

// oracle runs the workload's kernel cross-checks (scale-256 only).
func (b *bench) oracle() {
	if !b.w.partitioned {
		return
	}
	// The oracle is the same partition at one worker: it must reproduce
	// round 0's simulated statistics exactly.
	w1 := b.play(b.newSim(1), 0)
	if w1.sum != b.digest {
		b.fault("kernel oracle: digest %016x at 1 worker, %016x at %d workers", w1.sum, b.digest, kernelWorkers())
	}
	b.note("kernel oracle: partitioned at 1 worker digest %016x, at %d workers %016x", w1.sum, kernelWorkers(), b.digest)
	// Plain sim.New() is not an oracle for this model: the latency floor
	// changes its behaviour with the kernel (ROADMAP item 3). Record the
	// difference rather than hide it.
	plain := b.play(sim.New(), 0)
	b.note("kernel-dependent model: plain serial kernel %.6f s simulated vs partitioned %.6f s (digest %016x)",
		plain.simElapsed.Seconds(), w1.simElapsed.Seconds(), plain.sum)
}

// calMedian is the median calibration time of the run.
func (b *bench) calMedian() time.Duration {
	var xs []float64
	for _, c := range b.clock.cals {
		xs = append(xs, float64(c))
	}
	return time.Duration(median(xs))
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// writeDigest saves round 0's canonical statistics, so a digest change
// between commits can be traced to the statistic that moved.
func (b *bench) writeDigest() {
	path := filepath.Join(outDir, fmt.Sprintf("digest-%s-seed%d.txt", b.w.name, b.seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		b.fault("writing digest: %v", err)
		return
	}
	if err := os.WriteFile(path, b.digestText, 0o644); err != nil {
		b.fault("writing digest: %v", err)
	}
}

// callClass classifies a timed call into the program.
type callClass string

const (
	classRestore  callClass = "restore"
	classSelect   callClass = "select"
	classJoin     callClass = "join"
	classUpdate   callClass = "update"
	classWorkload callClass = "workload"
	classDrop     callClass = "drop"
)

// query reports whether the class is a Machine.Run* call.
func (c callClass) query() bool {
	return c == classSelect || c == classJoin || c == classUpdate || c == classWorkload
}

type call struct {
	class callClass
	t     timing
}

// roundCtx is one round: a fresh restore and the workload's calls on it.
type roundCtx struct {
	b   *bench
	run int
	m   *core.Machine

	calls             []call
	attempted, failed int
	queries           int     // queries completed (for sim_qps)
	simElapsed        sim.Dur // simulated time of the round's queries
	paperLn           []float64
	events            atomic.Int64
	text              bytes.Buffer // canonical simulated statistics
	sum               uint64       // digest of text
	traceEvents       int
	pagesSaved        int64
	maxInFlight       int
	machine           machineStats
}

// timed runs f as one program call, recording its host time and a span.
// It returns the recovered panic, if any.
func (rc *roundCtx) timed(class callClass, name string, f func()) (panicked any) {
	if rc.b.clock.beforeCall(len(rc.calls)) {
		calStart := time.Now()
		rc.b.clock.calibrate()
		rc.b.spans.add(rc.run, "calibrate", calStart, time.Now())
	}
	cal := rc.b.clock.latest()
	start := time.Now()
	func() {
		defer func() { panicked = recover() }()
		f()
	}()
	end := time.Now()
	rc.calls = append(rc.calls, call{class, timing{end.Sub(start), cal}})
	rc.b.spans.add(rc.run, name, start, end)
	return panicked
}

// restore builds the round's machine from the image.
func (rc *roundCtx) restore(s *sim.Sim) {
	if p := rc.timed(classRestore, "restore", func() { rc.m = core.RestoreMachine(s, rc.b.snap) }); p != nil {
		rc.b.fault("restore panicked: %v", p)
		rc.m = nil
		return
	}
	if rc.b.enableTrace {
		rc.m.EnableTrace()
	}
}

// op runs ops operations as one timed call, then checks the answer outside
// the timing. The operations fail if the call panics or check returns an
// error (a wrong answer or Result.Err).
func (rc *roundCtx) op(class callClass, label string, ops int, run func(), check func() error) {
	rc.attempted += ops
	if p := rc.timed(class, label, run); p != nil {
		rc.failed += ops
		rc.b.fault("%s panicked: %v", label, p)
		return
	}
	start := time.Now()
	err := check()
	rc.b.spans.add(rc.run, "check", start, time.Now())
	if err != nil {
		rc.failed += ops
		rc.b.fault("%s: %v", label, err)
	}
}

// result records a single query's exact simulated statistics.
func (rc *roundCtx) result(label string, res core.Result) {
	fmt.Fprintf(&rc.text, "%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n", label, res.Elapsed, res.Tuples,
		res.DataPackets, res.LocalMsgs, res.CtlMsgs, res.PoolHits, res.PoolMisses,
		res.SharedPagesSaved, res.Overflows, res.Attempts)
	rc.queries++
	rc.simElapsed += res.Elapsed
	rc.pagesSaved += res.SharedPagesSaved
	rc.maxInFlight = max(rc.maxInFlight, 1)
	if pub, ok := paperGamma100k[label]; ok && res.Elapsed > 0 {
		rc.paperLn = append(rc.paperLn, math.Abs(math.Log(res.Elapsed.Seconds()/pub)))
	}
}

// drop removes a query's result relation as a timed program call.
func (rc *roundCtx) drop(name string) {
	if name == "" {
		return
	}
	if p := rc.timed(classDrop, "drop", func() { rc.m.Drop(name) }); p != nil {
		rc.b.fault("drop %s panicked: %v", name, p)
	}
}

// rel returns a catalogued relation of the round's machine.
func (rc *roundCtx) rel(name string) *core.Relation {
	r, ok := rc.m.Relation(name)
	if !ok {
		panic("perfbench: relation " + name + " missing from the image")
	}
	return r
}

// programTime is the host time of the round's calls into the program:
// restore, Run* and Drop, at nominal host speed. Answer checks are the
// benchmark's own work.
func (rc *roundCtx) programTime() time.Duration {
	var t time.Duration
	for _, c := range rc.calls {
		t += rc.b.clock.scaled(c.t)
	}
	return t
}

// rawProgramTime is programTime as measured, without host-speed scaling.
func (rc *roundCtx) rawProgramTime() time.Duration {
	var t time.Duration
	for _, c := range rc.calls {
		t += c.t.d
	}
	return t
}

// finish reads the machine's cumulative counters at the end of the round.
func (rc *roundCtx) finish() {
	rc.machine = readMachine(rc.m, &rc.text)
	if rc.m.Trace != nil {
		rc.traceEvents = rc.m.Trace.Len()
	}
}

// mix derives a well-spread 64-bit value from a seed and a salt.
func mix(seed, salt uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + salt + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// rng is a splitmix64 stream for drawing query parameters.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func readMetrics(set []metrics.Sample) []float64 {
	metrics.Read(set)
	out := make([]float64, len(set))
	for i, s := range set {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}
