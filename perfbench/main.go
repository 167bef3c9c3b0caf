// Command perfbench is the repository benchmark. It builds Gamma machines
// and runs one workload through the public functions of the layer packages
// (wisconsin.Generate, Machine.Load/Snapshot, core.RestoreMachine,
// Machine.Run*), timing every call from outside, checking every answer
// against a plain-Go reference, and reading only counters the packages
// already expose.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload single-user --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics of BENCHMARK.json; with --trace 1 they are the per-layer
// metrics, measured in a separate traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the workload seed used when --seed is absent. README.md
// names the held-out seed.
const defaultSeed = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed: derives relation seeds and query parameters")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in host seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %g\n", *seconds)
		return 2
	}

	// The serial kernel runs one simulated process at a time. A second P
	// adds nothing but a cross-CPU wake-up at every process hand-off, whose
	// cost follows the load of the host's other tenants: per-query host
	// times spread about twice as wide at GOMAXPROCS=2 as at 1. The
	// partitioned kernel gets every CPU, one kernel worker each.
	if w.partitioned {
		runtime.GOMAXPROCS(runtime.NumCPU())
	} else {
		runtime.GOMAXPROCS(1)
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d trace=%d nproc=%d GOMAXPROCS=%d kernel_workers=%d go=%s\n",
		w.name, *seed, *traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), kernelWorkers(), runtime.Version())

	b := &bench{w: w, seed: *seed, clock: &hostClock{}}
	b.setup()
	phase := time.Duration(*seconds * float64(time.Second))
	var metrics map[string]metric
	if *traced == 1 {
		metrics = b.tracedRun(phase)
	} else {
		metrics = b.timedRun(phase)
	}
	b.oracle()

	for _, line := range b.notes {
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "digest %s seed=%d: %016x\n", w.name, *seed, b.digest)
	fmt.Fprintf(stdout, "operations: attempted=%d failed=%d\n", b.attempted, b.failed)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-24s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}

	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0 && len(b.faults) == 0, b.attempted, b.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	for _, f := range b.faults {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// kernelWorkers is the worker budget of the partitioned kernel: one per
// host CPU, never more.
func kernelWorkers() int {
	return min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
}
