// Command gammabench regenerates the paper's tables and figures on the
// simulated Gamma and Teradata machines.
//
// Usage:
//
//	gammabench [-quick] [-list] [-parallel N] [-json] [-kernel-workers N]
//	           [-fusion adaptive|off|all] [-generation NAME]
//	           [-campaign-seed S] [-campaign-faults N]
//	           [-experiment a,b] [experiment ...]
//
// With no experiment arguments every registered experiment runs; experiments
// can be named positionally or as a comma-separated -experiment list (both
// forms combine). -quick uses reduced relation sizes for a fast smoke run;
// the default is paper scale (10k/100k/1M tuples), which regenerates every
// published number.
//
// -parallel N fans experiments and their independent data points across N
// worker goroutines (default GOMAXPROCS). Every data point is its own
// deterministic simulation with a fixed seed, so the rendered tables are
// byte-identical at any worker count. -json replaces the tables with a
// machine-readable report (wall-clock and simulated-events/sec per
// experiment). -cpuprofile and -memprofile write pprof profiles.
//
// Every Gamma machine runs on a partitioned simulation, one shard per
// simulated node, whose lookahead is the network's delivery-latency floor
// (Net.MinLatency); the Teradata reference machines run on the plain
// single-heap kernel. -kernel-workers bounds the goroutines each Gamma
// simulation may use for conservative windows; the default, one worker, is
// the serialized oracle, and every worker count produces byte-identical
// tables, JSON and traces. Machines that arm faults, failover, healing,
// shared scans or a multiuser workload run on one worker whatever the
// budget. -fusion selects the partitioned kernel's adaptive shard-fusion
// mode (DESIGN.md §13): "adaptive" (the default) coalesces shards onto
// shared heaps when barrier rounds run thin and re-splits them when traffic
// returns, "off" pins one shard per group, and "all" starts fully fused.
//
// -generation parameterizes every machine with a named hardware generation
// (-list-generations enumerates them; the default is gamma1988, the paper's
// VAX-era build). Unknown names are rejected with the valid list. The
// partitioned kernel derives its windows from the generation's network
// latency floor, so fast generations lean on the earliest-output-time
// scheduler (see DESIGN.md §12); the -json report echoes the generation and
// adds the kernel's window counters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"gamma/internal/bench"
	"gamma/internal/config"
)

// jsonExperiment is one experiment's entry in the -json report.
// wall_seconds keeps its historical meaning (total experiment wall clock);
// setup_wall_seconds/query_wall_seconds split it into machine-image
// build/restore time vs query simulation time. Setup is cumulative across an
// experiment's data points, so under -parallel it can exceed wall_seconds;
// query_wall_seconds is clamped at zero in that case.
type jsonExperiment struct {
	ID               string  `json:"id"`
	Title            string  `json:"title"`
	WallSeconds      float64 `json:"wall_seconds"`
	SetupWallSeconds float64 `json:"setup_wall_seconds"`
	QueryWallSeconds float64 `json:"query_wall_seconds"`
	SimEvents        int64   `json:"simulated_events"`
	EventsPerSec     float64 `json:"events_per_second"`
	ImageCacheHits   int64   `json:"image_cache_hits"`
	ImageCacheMisses int64   `json:"image_cache_misses"`
	// EOT window-scheduler counters, aggregated over every simulation the
	// experiment ran; all zero when it ran on one worker. The
	// counts are deterministic (they depend only on the event schedule and
	// the declared floors/promises, not on worker interleaving).
	// Every counter key is always present — zero-valued on one worker —
	// so downstream tooling never needs key-presence checks.
	KernelWindows         int64              `json:"kernel_windows"`
	KernelWindowOccupancy float64            `json:"kernel_window_occupancy"`
	KernelEventsPerWindow float64            `json:"kernel_events_per_window"`
	KernelPromises        int64              `json:"kernel_promises"`
	KernelGroupWindows    int64              `json:"kernel_group_windows"`
	KernelFuseOps         int64              `json:"kernel_fuse_ops"`
	KernelSplitOps        int64              `json:"kernel_split_ops"`
	Metrics               map[string]float64 `json:"metrics,omitempty"`
}

type jsonReport struct {
	Suite            string           `json:"suite"`          // "full" or "quick"
	KernelWorkers    int              `json:"kernel_workers"` // worker budget of each Gamma simulation
	Fusion           string           `json:"fusion"`         // shard-fusion mode: "adaptive", "off", or "all"
	Generation       string           `json:"generation"`     // hardware generation the machines were parameterized with
	Workers          int              `json:"workers"`
	GoMaxProcs       int              `json:"gomaxprocs"`
	TotalWallSeconds float64          `json:"total_wall_seconds"`
	ImageCacheHits   int64            `json:"image_cache_hits"`
	ImageCacheMisses int64            `json:"image_cache_misses"`
	Experiments      []jsonExperiment `json:"experiments"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gammabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run with reduced relation sizes")
	list := fs.Bool("list", false, "list experiments and exit")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines for experiments and independent data points")
	jsonOut := fs.Bool("json", false, "emit a machine-readable report instead of tables")
	kernelWorkers := fs.Int("kernel-workers", 1, "worker goroutines per Gamma simulation's conservative windows (1 = the serialized oracle)")
	fusionMode := fs.String("fusion", "", "partitioned-kernel shard-fusion `mode`: adaptive (default), off, or all")
	generation := fs.String("generation", "", "hardware `generation` to parameterize the machines with (see -list-generations; default gamma1988)")
	listGens := fs.Bool("list-generations", false, "list hardware generations and exit")
	experiment := fs.String("experiment", "", "comma-separated experiment `ids` to run (adds to positional ids)")
	campaignSeed := fs.Uint64("campaign-seed", 0, "`seed` for the availability experiment's fault campaign (0 = default)")
	campaignFaults := fs.Int("campaign-faults", 0, "faults per availability campaign (0 = default)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := fs.String("memprofile", "", "write a heap profile to `file`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parallel < 1 {
		fmt.Fprintf(stderr, "gammabench: -parallel must be >= 1 (got %d)\n", *parallel)
		fs.Usage()
		return 2
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-18s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *listGens {
		for _, g := range config.Generations() {
			fmt.Fprintf(stdout, "%-12s %s\n", g.Name, g.Desc)
		}
		return 0
	}

	opts := bench.Full()
	suite := "full"
	if *quick {
		opts = bench.Quick()
		suite = "quick"
	}
	// A typo must not silently run gamma1988.
	genName := *generation
	if genName != "" {
		prm, ok := config.ByGeneration(genName)
		if !ok {
			fmt.Fprintf(stderr, "gammabench: unknown generation %q (valid: %s)\n",
				genName, strings.Join(config.GenerationNames(), ", "))
			fs.Usage()
			return 2
		}
		opts.Params = &prm
	} else {
		genName = "gamma1988"
	}
	if *kernelWorkers < 1 {
		fmt.Fprintf(stderr, "gammabench: -kernel-workers must be >= 1 (got %d)\n", *kernelWorkers)
		fs.Usage()
		return 2
	}
	opts.KernelWorkers = *kernelWorkers
	switch *fusionMode {
	case "", "adaptive", "off", "all":
		opts.Fusion = *fusionMode
	default:
		fmt.Fprintf(stderr, "gammabench: -fusion must be adaptive, off, or all (got %q)\n", *fusionMode)
		fs.Usage()
		return 2
	}
	if *campaignFaults < 0 {
		fmt.Fprintf(stderr, "gammabench: -campaign-faults must be >= 0 (got %d)\n", *campaignFaults)
		fs.Usage()
		return 2
	}
	opts.CampaignSeed = *campaignSeed
	opts.CampaignFaults = *campaignFaults

	ids := fs.Args()
	for _, id := range strings.Split(*experiment, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	// Reject unknown experiments up front, before hours of simulation.
	for _, id := range ids {
		if _, ok := bench.Lookup(id); !ok {
			fmt.Fprintf(stderr, "gammabench: unknown experiment %q\n", id)
			fs.Usage()
			fmt.Fprintf(stderr, "experiments (use -list for titles):\n")
			for _, e := range bench.Experiments() {
				fmt.Fprintf(stderr, "  %s\n", e.ID)
			}
			return 2
		}
	}
	var exps []bench.Experiment
	if len(ids) == 0 {
		exps = bench.Experiments()
	} else {
		for _, id := range ids {
			e, _ := bench.Lookup(id)
			exps = append(exps, e)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "gammabench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "gammabench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	reports := bench.RunSuite(exps, opts, *parallel)
	total := time.Since(start)

	if *jsonOut {
		fusionName := *fusionMode
		if fusionName == "" {
			fusionName = "adaptive"
		}
		rep := jsonReport{
			Suite:            suite,
			KernelWorkers:    *kernelWorkers,
			Fusion:           fusionName,
			Generation:       genName,
			Workers:          *parallel,
			GoMaxProcs:       runtime.GOMAXPROCS(0),
			TotalWallSeconds: total.Seconds(),
		}
		for _, r := range reports {
			rep.ImageCacheHits += r.ImageHits
			rep.ImageCacheMisses += r.ImageMisses
			je := jsonExperiment{
				ID:                 r.ID,
				Title:              r.Title,
				WallSeconds:        r.Wall.Seconds(),
				SetupWallSeconds:   r.Setup.Seconds(),
				QueryWallSeconds:   r.QueryWall().Seconds(),
				SimEvents:          r.Events,
				EventsPerSec:       r.EventsPerSec(),
				ImageCacheHits:     r.ImageHits,
				ImageCacheMisses:   r.ImageMisses,
				KernelWindows:      r.Windows.Windows,
				KernelPromises:     r.Windows.Promises,
				KernelGroupWindows: r.Windows.GroupWindows,
				KernelFuseOps:      r.Windows.FuseOps,
				KernelSplitOps:     r.Windows.SplitOps,
				Metrics:            r.Table.Metrics,
			}
			if r.Windows.Windows > 0 {
				je.KernelWindowOccupancy = r.Windows.Occupancy()
				je.KernelEventsPerWindow = float64(r.Windows.WindowEvents) / float64(r.Windows.Windows)
			}
			rep.Experiments = append(rep.Experiments, je)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "gammabench: %v\n", err)
			return 1
		}
	} else {
		// Tables go to stdout; wall-clock chatter goes to stderr so the
		// rendered output is byte-identical at any -parallel setting.
		var hits, misses int64
		for _, r := range reports {
			r.Table.Render(stdout)
			hits += r.ImageHits
			misses += r.ImageMisses
			fmt.Fprintf(stderr, "   [%s regenerated in %.1fs wall time (%.1fs setup + %.1fs query), %.1fM simulated events/s, images %d hit/%d miss]\n\n",
				r.ID, r.Wall.Seconds(), r.Setup.Seconds(), r.QueryWall().Seconds(),
				r.EventsPerSec()/1e6, r.ImageHits, r.ImageMisses)
		}
		fmt.Fprintf(stderr, "   [machine-image cache: %d restores, %d builds]\n", hits, misses)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "gammabench: -memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "gammabench: -memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
