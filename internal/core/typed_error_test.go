package core

import (
	"errors"
	"testing"

	"gamma/internal/config"
	"gamma/internal/rel"
	"gamma/internal/sim"
	"gamma/internal/wisconsin"
)

// newMirrored builds a mirrored machine with one 4000-tuple heap relation.
func newMirrored(t *testing.T, nDisk, nDiskless int) (*Machine, *Relation) {
	t.Helper()
	prm := config.Default()
	m := NewMachine(sim.New(), &prm, nDisk, nDiskless)
	m.EnableMirroring()
	r := m.Load(LoadSpec{Name: "A", Strategy: Hashed, PartAttr: rel.Unique1}, wisconsin.Generate(4000, 1))
	return m, r
}

// stillServes runs a selection after a failed query: the machine keeps
// serving, from backups where a drive was lost.
func stillServes(t *testing.T, m *Machine, r *Relation) {
	t.Helper()
	res := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, 0, 399), Path: PathHeap}})
	if res.Err != nil || res.Tuples != 400 {
		t.Errorf("follow-up query: %d tuples, err %v; want 400 tuples", res.Tuples, res.Err)
	}
}

// TestNoSurvivingProcessorIsTypedError: an aggregate whose aggregation
// processors are all down fails with *ErrUnavailable instead of panicking.
func TestNoSurvivingProcessorIsTypedError(t *testing.T) {
	m, r := newMirrored(t, 4, 2)
	for _, nd := range m.Diskless {
		nd.Fail()
	}
	res := m.RunAgg(AggQuery{Scan: ScanSpec{Rel: r, Pred: rel.True()}, Fn: Count, Attr: rel.Unique1, Mode: Remote})
	var ue *ErrUnavailable
	if !errors.As(res.Err, &ue) {
		t.Fatalf("err = %v, want *ErrUnavailable", res.Err)
	}
	stillServes(t, m, r)
}

// TestDriveLossWithoutFailoverIsTypedError: a drive failing under a running
// selection on a machine without failover armed ends the query with
// *ErrDriveLost; its operators are abandoned, so the run ends cleanly.
func TestDriveLossWithoutFailoverIsTypedError(t *testing.T) {
	m, r := newMirrored(t, 4, 0)
	nd := m.Disk[2]
	nd.Part.At(300*sim.Millisecond, func() { m.FailDrive(2) })
	res := m.RunSelect(SelectQuery{Scan: ScanSpec{Rel: r, Pred: rel.Between(rel.Unique2, 0, 399), Path: PathHeap}})
	var dl *ErrDriveLost
	if !errors.As(res.Err, &dl) || dl.Node != nd.ID {
		t.Fatalf("err = %v, want *ErrDriveLost on node %d", res.Err, nd.ID)
	}
	if res.ResultName != "" {
		t.Errorf("partial result %q not dropped", res.ResultName)
	}
	stillServes(t, m, r)
}

// TestNoFailoverQueryTypeIsTypedError: with failover armed, a node crash
// under an aggregate — a query type with no abort protocol — fails it with
// *ErrNoFailover, and the abandoned operators do not deadlock the run.
func TestNoFailoverQueryTypeIsTypedError(t *testing.T) {
	m, r := newMirrored(t, 4, 2)
	m.EnableFailover(0)
	m.Disk[1].Part.At(300*sim.Millisecond, func() { m.CrashDisk(1) })
	res := m.RunAgg(AggQuery{Scan: ScanSpec{Rel: r, Pred: rel.True()}, Fn: Count, Attr: rel.Unique1, Mode: Remote})
	var nf *ErrNoFailover
	if !errors.As(res.Err, &nf) || len(nf.Sites) != 1 || nf.Sites[0] != 1 {
		t.Fatalf("err = %v, want *ErrNoFailover for site 1", res.Err)
	}
	stillServes(t, m, r)
}
