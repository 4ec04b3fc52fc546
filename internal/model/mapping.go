package model

import (
	"fmt"
	"maps"
	"slices"
)

// Mapping assigns every thread of every (leaf) function to a processor node.
// It is produced either manually in the Designer or by the AToT genetic
// mapper, and consumed by the glue-code generator.
type Mapping struct {
	// Assign[functionName][threadIndex] = node id.
	Assign map[string][]int
}

// NewMapping returns an empty mapping.
func NewMapping() *Mapping { return &Mapping{Assign: map[string][]int{}} }

// Set assigns the threads of a function to the given nodes.
func (m *Mapping) Set(fn string, nodes ...int) {
	cp := make([]int, len(nodes))
	copy(cp, nodes)
	m.Assign[fn] = cp
}

// NodeOf returns the node hosting thread i of function fn.
func (m *Mapping) NodeOf(fn string, i int) (int, error) {
	nodes, ok := m.Assign[fn]
	if !ok {
		return 0, fmt.Errorf("model: mapping has no entry for function %q", fn)
	}
	if i < 0 || i >= len(nodes) {
		return 0, fmt.Errorf("model: mapping for %q has %d threads, asked for %d", fn, len(nodes), i)
	}
	return nodes[i], nil
}

// Validate checks the mapping against an application and node count: every
// leaf function covered, thread counts matching, node ids in range.
func (m *Mapping) Validate(app *App, numNodes int) error {
	for _, f := range app.Functions {
		if f.IsComposite() {
			return fmt.Errorf("model: mapping validation requires a flattened app (composite %q present)", f.Name)
		}
		nodes, ok := m.Assign[f.Name]
		if !ok {
			return fmt.Errorf("model: function %q has no mapping", f.Name)
		}
		if len(nodes) != f.Threads {
			return fmt.Errorf("model: function %q has %d threads but %d mapped nodes", f.Name, f.Threads, len(nodes))
		}
		for i, n := range nodes {
			if n < 0 || n >= numNodes {
				return fmt.Errorf("model: function %q thread %d mapped to node %d of %d", f.Name, i, n, numNodes)
			}
		}
	}
	return nil
}

// Clone returns a deep copy.
func (m *Mapping) Clone() *Mapping {
	out := NewMapping()
	for fn, nodes := range m.Assign {
		out.Set(fn, nodes...)
	}
	return out
}

// NodesUsed returns the sorted set of node ids referenced by the mapping.
func (m *Mapping) NodesUsed() []int {
	set := map[int]bool{}
	for _, nodes := range m.Assign {
		for _, n := range nodes {
			set[n] = true
		}
	}
	return slices.Sorted(maps.Keys(set))
}

// RoundRobin produces the naive baseline mapping: threads are dealt onto
// nodes 0..numNodes-1 in function-ID order. Parallel (multi-thread)
// functions spread one thread per node when possible.
func RoundRobin(app *App, numNodes int) *Mapping {
	m := NewMapping()
	next := 0
	for _, f := range app.Functions {
		nodes := make([]int, f.Threads)
		for i := range nodes {
			nodes[i] = next % numNodes
			next++
		}
		m.Set(f.Name, nodes...)
	}
	return m
}

// StaggerParallel places each function's threads on its own band of nodes:
// the first function occupies nodes 0..T0-1, the next T1..., wrapping when
// the bands exhaust the machine. A pipeline of k functions with t threads
// each therefore populates min(k*t, numNodes) distinct processors, whereas
// SpreadParallel overlays every function on nodes 0..T-1 and leaves the rest
// of a large machine idle. This is the natural hand mapping for topologies
// much wider than any single function's thread count.
func StaggerParallel(app *App, numNodes int) (*Mapping, error) {
	if numNodes < 1 {
		return nil, fmt.Errorf("model: stagger mapping needs at least one node, got %d", numNodes)
	}
	m := NewMapping()
	offset := 0
	for _, f := range app.Functions {
		nodes := make([]int, f.Threads)
		for i := range nodes {
			nodes[i] = (offset + i) % numNodes
		}
		m.Set(f.Name, nodes...)
		offset += f.Threads
	}
	return m, nil
}

// SpreadParallel maps each multi-threaded function across nodes 0..T-1 and
// places single-threaded functions on node 0. This is the canonical manual
// mapping for the benchmark pipelines (source and sink on node 0, worker
// threads one per node), matching how the hand-coded versions are deployed.
func SpreadParallel(app *App, numNodes int) (*Mapping, error) {
	m := NewMapping()
	for _, f := range app.Functions {
		if f.Threads > numNodes {
			return nil, fmt.Errorf("model: function %q has %d threads but only %d nodes", f.Name, f.Threads, numNodes)
		}
		nodes := make([]int, f.Threads)
		for i := range nodes {
			nodes[i] = i
		}
		m.Set(f.Name, nodes...)
	}
	return m, nil
}
