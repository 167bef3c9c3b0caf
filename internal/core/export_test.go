package core

// RegisteredOps returns the number of processes in a node's kill registry.
// Kernel context on the node's shard, or between runs.
func (m *Machine) RegisteredOps(nodeID int) int { return len(m.procs[nodeID]) }
