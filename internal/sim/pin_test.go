package sim

import "testing"

// TestPinnedRunsSerialized: a pinned simulation runs no parallel windows
// whatever its worker budget, set before or after Pin, and produces the
// oracle's final clock and event count.
func TestPinnedRunsSerialized(t *testing.T) {
	const nodes, hops, work = 8, 6, 12
	_, refExec, refEnd := runKernelCluster(t, nodes, hops, work, 1)

	s := New()
	s.Partition(kernelLookahead)
	s.Pin()
	s.SetWorkers(4)
	buildKernelCluster(s, nodes, hops, work)
	end := s.Run()
	if ws := s.WindowStats(); ws.Windows != 0 {
		t.Errorf("pinned run executed %d parallel windows", ws.Windows)
	}
	if end != refEnd || s.Executed() != refExec {
		t.Errorf("pinned run: end %v, %d events; oracle %v, %d events", end, s.Executed(), refEnd, refExec)
	}
}
