package kb

// Hierarchy records containment between entity values, e.g. the location
// chain San Francisco ⊂ California ⊂ USA ⊂ North America of §5.4. The world
// generator populates it for hierarchical predicates, the Web corpus and
// the Freebase snapshot draw general values from it, and the error analysis
// uses it to recognize specific/general "errors" (Figure 17).
type Hierarchy struct {
	parent map[EntityID]EntityID
	depth  map[EntityID]int
}

// NewHierarchy returns an empty hierarchy.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{parent: make(map[EntityID]EntityID), depth: make(map[EntityID]int)}
}

// SetParent records that child is directly contained in parent. Cycles are
// the caller's responsibility to avoid; the generator builds trees only.
func (h *Hierarchy) SetParent(child, parent EntityID) {
	h.parent[child] = parent
	h.depth = nil // invalidate memoized depths
}

// Parent returns the direct parent of e, or "" if e is a root or unknown.
func (h *Hierarchy) Parent(e EntityID) EntityID { return h.parent[e] }

// Ancestors returns the chain of ancestors of e from direct parent to root.
func (h *Hierarchy) Ancestors(e EntityID) []EntityID {
	var out []EntityID
	seen := map[EntityID]bool{e: true}
	for cur := h.parent[e]; cur != "" && !seen[cur]; cur = h.parent[cur] {
		out = append(out, cur)
		seen[cur] = true
	}
	return out
}

// IsAncestor reports whether anc is a (transitive) ancestor of e.
func (h *Hierarchy) IsAncestor(anc, e EntityID) bool {
	seen := map[EntityID]bool{e: true}
	for cur := h.parent[e]; cur != "" && !seen[cur]; cur = h.parent[cur] {
		if cur == anc {
			return true
		}
		seen[cur] = true
	}
	return false
}

// Related reports whether a and b lie on one containment chain (either may be
// the ancestor), which is how the paper's error analysis classifies
// "specific/general value" mistakes (Figure 17).
func (h *Hierarchy) Related(a, b EntityID) bool {
	if a == b {
		return true
	}
	return h.IsAncestor(a, b) || h.IsAncestor(b, a)
}

// Len reports the number of child→parent links.
func (h *Hierarchy) Len() int { return len(h.parent) }
