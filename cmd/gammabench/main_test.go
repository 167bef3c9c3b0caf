package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func devNull(t *testing.T) *os.File {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { null.Close() })
	return null
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	null := devNull(t)
	if code := run([]string{"-bogus", "table1"}, null, null); code != 2 {
		t.Errorf("unknown flag: exit code %d, want 2", code)
	}
}

// TestExperimentFlag: -experiment takes a comma-separated id list, combines
// with positional ids, and rejects unknown names before simulating.
func TestExperimentFlag(t *testing.T) {
	null := devNull(t)
	var out bytes.Buffer
	if code := run([]string{"-quick", "-json", "-parallel", "1", "-experiment", "table3,bitvector"}, &out, null); code != 0 {
		t.Fatalf("-experiment run: exit code %d", code)
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad -json output: %v", err)
	}
	if len(rep.Experiments) != 2 || rep.Experiments[0].ID != "table3" || rep.Experiments[1].ID != "bitvector" {
		t.Errorf("experiments = %+v, want table3 then bitvector", rep.Experiments)
	}
	if code := run([]string{"-quick", "-experiment", "table9"}, null, null); code != 2 {
		t.Errorf("-experiment with unknown id: exit code %d, want 2", code)
	}
}

// TestMultiuserMetricsInJSON: the multiuser experiment's headline metrics —
// including the shared-scan speedup — surface in the -json report.
func TestMultiuserMetricsInJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 closed-loop simulations")
	}
	null := devNull(t)
	var out bytes.Buffer
	if code := run([]string{"-quick", "-json", "-parallel", "1", "-experiment", "multiuser"}, &out, null); code != 0 {
		t.Fatalf("multiuser run: exit code %d", code)
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad -json output: %v", err)
	}
	if len(rep.Experiments) != 1 {
		t.Fatalf("got %d experiments, want 1", len(rep.Experiments))
	}
	m := rep.Experiments[0].Metrics
	for _, k := range []string{"qps_private_mpl8", "qps_shared_mpl8", "speedup_mpl8", "shared_pages_saved_mpl8"} {
		if m[k] <= 0 {
			t.Errorf("metrics[%q] = %v, want > 0 (metrics: %v)", k, m[k], m)
		}
	}
	if m["speedup_mpl8"] < 2 {
		t.Errorf("speedup_mpl8 = %.2f, want >= 2 at quick scale", m["speedup_mpl8"])
	}
}

// TestJSONSetupQuerySplitAndCacheCounters: the -json report carries the
// setup/query wall split (old field names intact) and the machine-image
// cache counters, per experiment and as suite totals.
func TestJSONSetupQuerySplitAndCacheCounters(t *testing.T) {
	null := devNull(t)
	var out bytes.Buffer
	// bitvector runs two machines off one image: 1 miss + 1 hit guaranteed.
	if code := run([]string{"-quick", "-json", "-parallel", "1", "-experiment", "bitvector"}, &out, null); code != 0 {
		t.Fatalf("bitvector run: exit code %d", code)
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad -json output: %v", err)
	}
	if len(rep.Experiments) != 1 {
		t.Fatalf("got %d experiments, want 1", len(rep.Experiments))
	}
	e := rep.Experiments[0]
	if e.WallSeconds <= 0 || e.SetupWallSeconds <= 0 || e.QueryWallSeconds <= 0 {
		t.Errorf("wall split: wall=%v setup=%v query=%v, want all > 0",
			e.WallSeconds, e.SetupWallSeconds, e.QueryWallSeconds)
	}
	if got := e.SetupWallSeconds + e.QueryWallSeconds; got > e.WallSeconds*1.001 {
		t.Errorf("serial run: setup+query = %v exceeds wall %v", got, e.WallSeconds)
	}
	if e.ImageCacheHits < 1 || e.ImageCacheMisses < 1 {
		t.Errorf("image cache counters: hits=%d misses=%d, want both >= 1",
			e.ImageCacheHits, e.ImageCacheMisses)
	}
	if rep.ImageCacheHits != e.ImageCacheHits || rep.ImageCacheMisses != e.ImageCacheMisses {
		t.Errorf("suite totals (%d/%d) != experiment counters (%d/%d)",
			rep.ImageCacheHits, rep.ImageCacheMisses, e.ImageCacheHits, e.ImageCacheMisses)
	}
	// Raw field names are part of the tooling contract.
	for _, field := range []string{`"wall_seconds"`, `"setup_wall_seconds"`, `"query_wall_seconds"`,
		`"image_cache_hits"`, `"image_cache_misses"`, `"simulated_events"`} {
		if !bytes.Contains(out.Bytes(), []byte(field)) {
			t.Errorf("-json output missing field %s", field)
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	null := devNull(t)
	if code := run([]string{"-quick", "table9"}, null, null); code != 2 {
		t.Errorf("unknown experiment: exit code %d, want 2", code)
	}
	// The check must fire before any experiment runs, even when a valid id
	// precedes the bad one.
	if code := run([]string{"-quick", "table1", "table9"}, null, null); code != 2 {
		t.Errorf("valid+unknown experiments: exit code %d, want 2", code)
	}
}

// TestGenerationFlag: -generation selects a hardware generation, rejects
// unknown names with the valid list before anything simulates, and the
// -json report echoes it.
func TestGenerationFlag(t *testing.T) {
	null := devNull(t)
	var errBuf bytes.Buffer
	if code := run([]string{"-quick", "-generation", "gamma1989", "table3"}, null, &errBuf); code != 2 {
		t.Errorf("-generation with unknown name: exit code %d, want 2", code)
	}
	for _, want := range []string{"unknown generation", "gamma1988", "gbe2015", "rdma"} {
		if !bytes.Contains(errBuf.Bytes(), []byte(want)) {
			t.Errorf("error output missing %q:\n%s", want, errBuf.String())
		}
	}
	var out bytes.Buffer
	if code := run([]string{"-quick", "-json", "-parallel", "1", "-generation", "rdma", "-experiment", "table3"}, &out, null); code != 0 {
		t.Fatalf("-generation rdma run: exit code %d", code)
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad -json output: %v", err)
	}
	if rep.Generation != "rdma" {
		t.Errorf("json generation = %q, want rdma", rep.Generation)
	}
}

// TestListGenerations: -list-generations enumerates every registered
// generation and exits cleanly.
func TestListGenerations(t *testing.T) {
	null := devNull(t)
	var out bytes.Buffer
	if code := run([]string{"-list-generations"}, &out, null); code != 0 {
		t.Fatalf("-list-generations: exit code %d, want 0", code)
	}
	for _, want := range []string{"gamma1988", "gbe2015", "rdma"} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Errorf("-list-generations output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsBadParallel(t *testing.T) {
	null := devNull(t)
	for _, v := range []string{"0", "-3", "two"} {
		if code := run([]string{"-parallel", v, "table1"}, null, null); code != 2 {
			t.Errorf("-parallel %s: exit code %d, want 2", v, code)
		}
	}
}

// TestRunRejectsBadKernelWorkers: -kernel-workers must be a positive
// count, checked before anything simulates.
func TestRunRejectsBadKernelWorkers(t *testing.T) {
	null := devNull(t)
	for _, v := range []string{"0", "-2", "x"} {
		if code := run([]string{"-kernel-workers", v, "table1"}, null, null); code != 2 {
			t.Errorf("-kernel-workers %s: exit code %d, want 2", v, code)
		}
	}
}

// TestFusionFlag: -fusion rejects unknown modes before running anything,
// the rendered tables are byte-identical across every fusion mode on four
// kernel workers (the adaptive policy and the fully-fused start must be
// invisible to results), and the -json report echoes the mode.
func TestFusionFlag(t *testing.T) {
	null := devNull(t)
	var errBuf bytes.Buffer
	if code := run([]string{"-fusion", "everything", "table3"}, null, &errBuf); code != 2 {
		t.Errorf("-fusion with unknown mode: exit code %d, want 2", code)
	}
	for _, want := range []string{"-fusion must be", "adaptive", "off", "all"} {
		if !bytes.Contains(errBuf.Bytes(), []byte(want)) {
			t.Errorf("unknown-fusion error %q does not mention %q", errBuf.String(), want)
		}
	}
	var byMode [3]bytes.Buffer
	for i, mode := range []string{"adaptive", "off", "all"} {
		args := []string{"-quick", "-parallel", "1", "-kernel-workers", "4",
			"-fusion", mode, "-experiment", "bitvector"}
		if code := run(args, &byMode[i], null); code != 0 {
			t.Fatalf("-fusion %s: exit code %d", mode, code)
		}
	}
	if !bytes.Equal(byMode[0].Bytes(), byMode[1].Bytes()) || !bytes.Equal(byMode[0].Bytes(), byMode[2].Bytes()) {
		t.Error("tables differ across fusion modes")
	}
	var out bytes.Buffer
	if code := run([]string{"-quick", "-json", "-parallel", "1",
		"-fusion", "all", "-experiment", "table3"}, &out, null); code != 0 {
		t.Fatalf("-json with -fusion: exit code %d", code)
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad -json output: %v", err)
	}
	if rep.Fusion != "all" {
		t.Errorf("json fusion = %q, want all", rep.Fusion)
	}
}

// TestKernelWorkersInvariance: the rendered tables are byte-identical on
// one kernel worker (the serialized oracle) and on four, for a Gamma-only
// experiment and one with Teradata reference machines, and the -json report
// echoes the worker budget.
func TestKernelWorkersInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the same experiments twice")
	}
	null := devNull(t)
	var oracle, windowed bytes.Buffer
	if code := run([]string{"-quick", "-parallel", "1", "table3", "bitvector"}, &oracle, null); code != 0 {
		t.Fatalf("one worker: exit code %d", code)
	}
	if code := run([]string{"-quick", "-parallel", "1", "-kernel-workers", "4", "table3", "bitvector"}, &windowed, null); code != 0 {
		t.Fatalf("four workers: exit code %d", code)
	}
	if !bytes.Equal(oracle.Bytes(), windowed.Bytes()) {
		t.Error("tables differ between one and four kernel workers")
	}
	var out bytes.Buffer
	if code := run([]string{"-quick", "-json", "-parallel", "1", "-kernel-workers", "4", "-experiment", "table3"}, &out, null); code != 0 {
		t.Fatalf("-json with -kernel-workers: exit code %d", code)
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad -json output: %v", err)
	}
	if rep.KernelWorkers != 4 {
		t.Errorf("kernel_workers = %d, want 4", rep.KernelWorkers)
	}
}

func TestRunRejectsUnwritableProfilePaths(t *testing.T) {
	null := devNull(t)
	bad := filepath.Join(t.TempDir(), "no-such-dir", "out.prof")
	// Both failures happen before (cpu) or after (mem) the suite; keep the
	// run cheap with a bad cpu path so nothing simulates.
	if code := run([]string{"-quick", "-cpuprofile", bad, "table3"}, null, null); code != 1 {
		t.Errorf("-cpuprofile to missing dir: exit code %d, want 1", code)
	}
}

func TestRunList(t *testing.T) {
	null := devNull(t)
	if code := run([]string{"-list"}, null, null); code != 0 {
		t.Errorf("-list: exit code %d, want 0", code)
	}
}

// TestRunSerialParallelIdentical asserts the rendered tables are
// byte-identical whether the suite runs on one worker or eight: every data
// point is an independent deterministic simulation, and wall-clock chatter
// goes to stderr.
func TestRunSerialParallelIdentical(t *testing.T) {
	null := devNull(t)
	var serial, parallel bytes.Buffer
	if code := run([]string{"-quick", "-parallel", "1", "table3", "bitvector"}, &serial, null); code != 0 {
		t.Fatalf("-parallel 1: exit code %d", code)
	}
	if code := run([]string{"-quick", "-parallel", "8", "table3", "bitvector"}, &parallel, null); code != 0 {
		t.Fatalf("-parallel 8: exit code %d", code)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Errorf("serial and parallel stdout differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
	if serial.Len() == 0 {
		t.Error("no table output")
	}
}

// TestRunProfilesWritten checks the pprof flags produce non-empty files.
func TestRunProfilesWritten(t *testing.T) {
	null := devNull(t)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	if code := run([]string{"-quick", "-cpuprofile", cpu, "-memprofile", mem, "table3"}, null, null); code != 0 {
		t.Fatalf("profiled run: exit code %d", code)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}
