package exper

import (
	"fmt"
	"sort"

	"kfusion/internal/kb"
	"kfusion/internal/stats"
)

// Table1 reproduces Table 1: overview counts and skew statistics of the
// extracted knowledge.
func Table1(ds *Dataset) *Table {
	uniq := ds.Unique()
	subjects := map[kb.EntityID]bool{}
	predicates := map[kb.PredicateID]bool{}
	objects := map[kb.Object]bool{}
	items := map[kb.DataItem]bool{}
	types := map[kb.TypeID]bool{}

	triplesPerEntity := map[kb.EntityID]int{}
	triplesPerPredicate := map[kb.PredicateID]int{}
	triplesPerItem := map[kb.DataItem]int{}
	triplesPerType := map[kb.TypeID]int{}
	predsPerEntity := map[kb.EntityID]map[kb.PredicateID]bool{}

	for _, u := range uniq {
		t := u.Triple
		subjects[t.Subject] = true
		predicates[t.Predicate] = true
		objects[t.Object] = true
		items[t.Item()] = true
		triplesPerEntity[t.Subject]++
		triplesPerPredicate[t.Predicate]++
		triplesPerItem[t.Item()]++
		if e := ds.World.Ont.Entity(t.Subject); e != nil {
			for _, ty := range e.Types {
				types[ty] = true
				triplesPerType[ty]++
			}
		}
		if predsPerEntity[t.Subject] == nil {
			predsPerEntity[t.Subject] = map[kb.PredicateID]bool{}
		}
		predsPerEntity[t.Subject][t.Predicate] = true
	}

	tb := &Table{ID: "table1", Title: "Overview of extracted knowledge",
		Header: []string{"Quantity", "Value", "Median", "Min", "Max"}}
	tb.AddRow("#Triples (unique)", len(uniq))
	tb.AddRow("#Extracted (with provenance)", len(ds.Extractions))
	tb.AddRow("#Subjects (entities)", len(subjects))
	tb.AddRow("#Predicates", len(predicates))
	tb.AddRow("#Objects", len(objects))
	tb.AddRow("#Data items", len(items))
	tb.AddRow("#Types", len(types))
	addSummary := func(name string, s stats.Summary) {
		tb.AddRow(name, fmt.Sprintf("mean %.1f", s.Mean), fmt.Sprintf("%.0f", s.Median), fmt.Sprintf("%.0f", s.Min), fmt.Sprintf("%.0f", s.Max))
	}
	addSummary("#Triples/type", summarizeCounts(triplesPerType))
	addSummary("#Triples/entity", summarizeCounts(triplesPerEntity))
	addSummary("#Triples/predicate", summarizeCounts(triplesPerPredicate))
	addSummary("#Triples/data-item", summarizeCounts(triplesPerItem))
	predCounts := map[kb.EntityID]int{}
	for e, ps := range predsPerEntity {
		predCounts[e] = len(ps)
	}
	addSummary("#Predicates/entity", summarizeCounts(predCounts))
	tb.Notes = append(tb.Notes,
		"paper: distributions are highly skewed — median well below mean",
		fmt.Sprintf("skew check: triples/entity median %.0f vs mean %.1f",
			summarizeCounts(triplesPerEntity).Median, summarizeCounts(triplesPerEntity).Mean))
	return tb
}

func summarizeCounts[K comparable](m map[K]int) stats.Summary {
	xs := make([]int, 0, len(m))
	for _, v := range m {
		xs = append(xs, v)
	}
	// SummarizeInts sums float-converted values in slice order; sort so the
	// mean does not depend on map iteration order.
	sort.Ints(xs)
	return stats.SummarizeInts(xs)
}

// Table2 reproduces Table 2: per-extractor volume, patterns and accuracy.
func Table2(ds *Dataset) *Table {
	type row struct {
		triples  map[kb.Triple]bool
		pages    map[string]bool
		patterns map[string]bool
		hasConf  bool
	}
	rows := map[string]*row{}
	for _, x := range ds.Extractions {
		r := rows[x.Extractor]
		if r == nil {
			r = &row{triples: map[kb.Triple]bool{}, pages: map[string]bool{}, patterns: map[string]bool{}}
			rows[x.Extractor] = r
		}
		r.triples[x.Triple] = true
		r.pages[x.URL] = true
		if x.Pattern != "" {
			r.patterns[x.Pattern] = true
		}
		if x.HasConfidence() {
			r.hasConf = true
		}
	}
	// Accuracy on unique triples; high-confidence accuracy on the conf>=.7
	// subset of extraction instances (deduplicated by triple).
	accOf := func(name string, minConf float64) (float64, int) {
		seen := map[kb.Triple]bool{}
		trueN, labeled := 0, 0
		for _, x := range ds.Extractions {
			if x.Extractor != name || seen[x.Triple] {
				continue
			}
			if minConf > 0 && (!x.HasConfidence() || x.Confidence < minConf) {
				continue
			}
			seen[x.Triple] = true
			if label, ok := ds.Gold.Label(x.Triple); ok {
				labeled++
				if label {
					trueN++
				}
			}
		}
		if labeled == 0 {
			return 0, 0
		}
		return float64(trueN) / float64(labeled), labeled
	}

	tb := &Table{ID: "table2", Title: "Extractor volume and quality",
		Header: []string{"Extractor", "#Triples", "#Webpages", "#Patterns", "Accu", "Accu(conf>=.7)"}}
	for _, name := range ds.Suite.Names() {
		r := rows[name]
		if r == nil {
			continue
		}
		pat := "No pat."
		if len(r.patterns) > 0 {
			pat = fmt.Sprint(len(r.patterns))
		}
		acc, _ := accOf(name, 0)
		hi := "No conf."
		if r.hasConf {
			a, n := accOf(name, 0.7)
			if n > 0 {
				hi = fmt.Sprintf("%.2f", a)
			}
		}
		tb.AddRow(name, len(r.triples), len(r.pages), pat, fmt.Sprintf("%.2f", acc), hi)
	}
	tb.Notes = append(tb.Notes,
		"paper Table 2: accuracies span 0.09-0.78; TXT4 best, DOM2 worst",
		"paper: for confidence-reporting extractors, conf>=.7 accuracy is usually higher")
	return tb
}

// Table3 reproduces Table 3: functional vs non-functional predicates.
func Table3(ds *Dataset) *Table {
	uniq := ds.Unique()
	type agg struct {
		preds   map[kb.PredicateID]bool
		items   map[kb.DataItem]bool
		triples int
		trueN   int
		labeled int
	}
	fn := &agg{preds: map[kb.PredicateID]bool{}, items: map[kb.DataItem]bool{}}
	nf := &agg{preds: map[kb.PredicateID]bool{}, items: map[kb.DataItem]bool{}}
	for _, u := range uniq {
		p := ds.World.Ont.Predicate(u.Triple.Predicate)
		a := nf
		if p != nil && p.Functional {
			a = fn
		}
		a.preds[u.Triple.Predicate] = true
		a.items[u.Triple.Item()] = true
		a.triples++
		if label, ok := ds.Gold.Label(u.Triple); ok {
			a.labeled++
			if label {
				a.trueN++
			}
		}
	}
	totalPreds := len(fn.preds) + len(nf.preds)
	totalItems := len(fn.items) + len(nf.items)
	totalTriples := fn.triples + nf.triples
	pct := func(a, b int) string {
		if b == 0 {
			return "0%"
		}
		return fmt.Sprintf("%.0f%%", 100*float64(a)/float64(b))
	}
	acc := func(a *agg) string {
		if a.labeled == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.2f", float64(a.trueN)/float64(a.labeled))
	}
	tb := &Table{ID: "table3", Title: "Functional vs non-functional predicates",
		Header: []string{"Type", "Predicates", "Data items", "Triples", "Accuracy"}}
	tb.AddRow("Functional", pct(len(fn.preds), totalPreds), pct(len(fn.items), totalItems), pct(fn.triples, totalTriples), acc(fn))
	tb.AddRow("Non-functional", pct(len(nf.preds), totalPreds), pct(len(nf.items), totalItems), pct(nf.triples, totalTriples), acc(nf))
	tb.Notes = append(tb.Notes, "paper Table 3: 28%/72% predicates, 24%/76% data items, 32%/68% triples, accuracy 0.18/0.25")
	return tb
}
