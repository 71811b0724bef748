package routing

import (
	"silentspan/internal/graph"
	"silentspan/internal/runtime"
	"silentspan/internal/spanning"
	"silentspan/internal/switching"
	"silentspan/internal/trees"
)

// This file is the one place that knows the two certified register
// families (spanning.State, and the switching registers BFS, MST and
// MDST share): everything that needs a tree claim out of a raw register
// — the live labeling, the cluster's gateway, quiet detector and admin
// plane, the campaigns — reads it here, with no validation, because
// mid-reconvergence a register may encode anything.

// ParentOf reads the raw parent pointer out of a register of either
// family: NoParent for nil or foreign states, trees.None for a root
// claim.
func ParentOf(s runtime.State) graph.NodeID {
	switch r := s.(type) {
	case spanning.State:
		return r.Parent
	default:
		if sw, ok := switching.RegOf(s); ok {
			return sw.Parent
		}
	}
	return NoParent
}

// RootDistOf reads the claimed root and distance-to-root out of a
// register: trees.None for nil or foreign states, -1 when the register
// carries no distance (switching's d=⊥ included).
func RootDistOf(s runtime.State) (root graph.NodeID, dist int) {
	switch r := s.(type) {
	case spanning.State:
		return r.Root, r.Dist
	default:
		if sw, ok := switching.RegOf(s); ok {
			if !sw.HasD {
				return sw.Root, -1
			}
			return sw.Root, sw.D
		}
	}
	return trees.None, -1
}
