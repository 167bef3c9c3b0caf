package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_tiny.txt from the current model")

// goldenPath holds the rendered tables of every registered experiment under
// tinyOptions. The simulation is deterministic, so the file is compared
// byte for byte: a change to any reproduced number shows up as a diff of
// this file. Regenerate it with
//
//	go test ./internal/bench -run Golden -args -update
const goldenPath = "testdata/golden_tiny.txt"

// TestGoldenTables renders every experiment at tiny scale and compares the
// text with the committed baseline.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the whole suite; skipped in -short")
	}
	var buf bytes.Buffer
	for _, r := range RunSuite(Experiments(), tinyOptions(), 2) {
		r.Table.Render(&buf)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/bench -run Golden -args -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("rendered tables differ from %s; diff the file after regenerating with -update", goldenPath)
	}
}
