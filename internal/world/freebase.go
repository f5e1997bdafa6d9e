package world

import (
	"kfusion/internal/kb"
	"kfusion/internal/randx"
)

// Snapshot is the incomplete trusted KB ("Freebase") carved out of the
// ground truth. It is deliberately imperfect in the four ways §4.4's error
// analysis documents: missing tail entities, missing extra values of
// non-functional items, general-instead-of-specific hierarchical values, and
// a small rate of outright wrong values.
type Snapshot struct {
	Store *kb.Store

	// WrongItems marks data items whose snapshot value is known-wrong
	// relative to the ground truth (kept so the mechanical error analysis
	// can attribute false positives to "wrong value in Freebase").
	WrongItems map[kb.DataItem]bool

	// Generalized marks items where the snapshot stores an ancestor of the
	// true specific value.
	Generalized map[kb.DataItem]bool
}

// BuildFreebase carves the snapshot from the world using w.Cfg.Freebase.
// The same world always yields the same snapshot.
func BuildFreebase(w *World) *Snapshot {
	cfg := w.Cfg.Freebase
	src := randx.New(w.Cfg.Seed).Split("freebase")
	snap := &Snapshot{
		Store:       kb.NewStore(),
		WrongItems:  make(map[kb.DataItem]bool),
		Generalized: make(map[kb.DataItem]bool),
	}

	// Inclusion probability interpolates from head to tail coverage by
	// popularity rank.
	rank := w.PopularityRank()
	n := len(rank)
	included := make(map[kb.EntityID]bool, n)
	// Entity i draws from src.SplitN("ent", i) and item d from
	// src.Split(d.String()), both derived through a label hash into one
	// reused stream.
	isrc, ent := randx.New(0), src.Label("ent")
	for i, e := range rank {
		frac := 0.0
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		p := cfg.HeadEntityCoverage + frac*(cfg.TailEntityCoverage-cfg.HeadEntityCoverage)
		if isrc.Reset(ent.Seed(int64(i))); isrc.Bool(p) {
			included[e] = true
		}
	}

	w.Truth.ForEachItem(func(d kb.DataItem, objs []kb.Object) {
		if !included[d.Subject] {
			return
		}
		isrc.Reset(src.Label(string(d.Subject)).Then("#").Then(string(d.Predicate)).SplitSeed())
		if !isrc.Bool(cfg.ItemCoverage) {
			return
		}
		pred := w.Ont.Predicate(d.Predicate)

		if isrc.Bool(cfg.WrongValueRate) {
			avoid := map[kb.Object]bool{}
			for _, o := range objs {
				avoid[o] = true
			}
			wrong := w.WrongValue(isrc, d.Predicate, avoid)
			// Only store values that are genuinely false (ancestors of a
			// true hierarchical value would merely be general, not wrong).
			if !wrong.IsZero() && !avoid[wrong] && !w.IsTrue(d.WithObject(wrong)) {
				snap.Store.Add(d.WithObject(wrong))
				snap.WrongItems[d] = true
				return
			}
		}

		for vi, o := range objs {
			// Non-functional items keep each value with ValueCoverage;
			// the first value is always kept so the item exists.
			if pred != nil && !pred.Functional && vi > 0 && !isrc.Bool(cfg.ValueCoverage) {
				continue
			}
			stored := o
			if pred != nil && pred.Hierarchical && isrc.Bool(cfg.GeneralValueRate) {
				if base, ok := o.Entity(); ok {
					if anc := w.Hier.Ancestors(base); len(anc) > 0 {
						stored = kb.EntityObject(anc[isrc.Intn(len(anc))])
						snap.Generalized[d] = true
					}
				}
			}
			snap.Store.Add(d.WithObject(stored))
		}
	})
	return snap
}

// HasItem reports whether the snapshot knows the data item at all — the
// LCWA precondition for labeling.
func (s *Snapshot) HasItem(d kb.DataItem) bool { return s.Store.HasItem(d) }

// Has reports whether the snapshot holds the exact triple.
func (s *Snapshot) Has(t kb.Triple) bool { return s.Store.Has(t) }
