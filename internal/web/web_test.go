package web

import (
	"strings"
	"testing"

	"kfusion/internal/kb"
	"kfusion/internal/world"
)

func testCorpus(t testing.TB, seed int64) (*world.World, *Corpus) {
	t.Helper()
	w := world.MustGenerate(world.DefaultConfig(seed))
	c, err := Generate(w, DefaultConfig(seed+1000))
	if err != nil {
		t.Fatal(err)
	}
	return w, c
}

func TestGenerateValidates(t *testing.T) {
	w := world.MustGenerate(world.DefaultConfig(1))
	bad := DefaultConfig(1)
	bad.NumSites = 0
	if _, err := Generate(w, bad); err == nil {
		t.Error("accepted NumSites=0")
	}
}

func TestCorpusDeterministic(t *testing.T) {
	_, a := testCorpus(t, 5)
	_, b := testCorpus(t, 5)
	if len(a.Pages) != len(b.Pages) {
		t.Fatalf("page counts differ: %d vs %d", len(a.Pages), len(b.Pages))
	}
	for i := range a.Pages {
		am, bm := a.Pages[i].Mentions(), b.Pages[i].Mentions()
		if a.Pages[i].URL != b.Pages[i].URL || len(am) != len(bm) {
			t.Fatalf("page %d differs", i)
		}
		for j := range am {
			if am[j] != bm[j] {
				t.Fatalf("mention %d/%d differs: %+v vs %+v", i, j, am[j], bm[j])
			}
		}
	}
}

func TestCorpusShape(t *testing.T) {
	_, c := testCorpus(t, 6)
	if len(c.Pages) < 300 {
		t.Errorf("too few pages: %d", len(c.Pages))
	}
	if c.NumSites() != 250 {
		t.Errorf("NumSites = %d, want 250", c.NumSites())
	}
	// Heavy tail: many sites contribute a single page.
	perSite := map[string]int{}
	for _, p := range c.Pages {
		perSite[p.Site]++
	}
	single := 0
	for _, n := range perSite {
		if n == 1 {
			single++
		}
	}
	if single < len(perSite)/5 {
		t.Errorf("only %d/%d single-page sites; want heavy tail", single, len(perSite))
	}
}

func TestContentTypeMix(t *testing.T) {
	_, c := testCorpus(t, 7)
	counts := map[ContentType]int{}
	for _, p := range c.Pages {
		for i := range p.Blocks {
			counts[p.Blocks[i].Type] += len(p.Blocks[i].Mentions())
		}
	}
	if counts[DOM] <= counts[TXT] {
		t.Errorf("DOM (%d) should dominate TXT (%d) per Figure 3", counts[DOM], counts[TXT])
	}
	if counts[TXT] <= counts[TBL] {
		t.Errorf("TXT (%d) should dominate TBL (%d)", counts[TXT], counts[TBL])
	}
	for _, ct := range ContentTypes() {
		if counts[ct] == 0 {
			t.Errorf("no mentions of type %s", ct)
		}
	}
}

func TestMentionsMostlyTrue(t *testing.T) {
	w, c := testCorpus(t, 8)
	total, trueN, flagged := 0, 0, 0
	for _, p := range c.Pages {
		for _, m := range p.Mentions() {
			total++
			if w.IsTrue(m.Claim()) {
				trueN++
			}
			if m.SourceError {
				flagged++
			}
		}
	}
	if total == 0 {
		t.Fatal("no mentions")
	}
	accuracy := float64(trueN) / float64(total)
	if accuracy < 0.85 {
		t.Errorf("source accuracy %.2f too low; sources should be mostly right (extractors add the noise)", accuracy)
	}
	if flagged == 0 {
		t.Error("no source errors injected at all")
	}
	// Every flagged mention must indeed be false.
	for _, p := range c.Pages {
		for _, m := range p.Mentions() {
			if m.SourceError && w.IsTrue(m.Claim()) {
				t.Fatalf("mention flagged SourceError but claim is true: %+v", m)
			}
		}
	}
}

func TestSentenceRendering(t *testing.T) {
	m := Mention{
		SubjectName: "Tom Cruise",
		Predicate:   "/people/person/birth_place",
		ObjectName:  "Syracuse",
	}
	for ti := 0; ti < TemplateCount; ti++ {
		s := RenderSentence(ti, m)
		if !strings.Contains(s, "Tom Cruise") || !strings.Contains(s, "Syracuse") || !strings.Contains(s, "birth place") {
			t.Errorf("template %d lost a field: %q", ti, s)
		}
	}
}

func TestAttrLabelAndItemProp(t *testing.T) {
	if got := AttrLabel("/people/person/birth_place"); got != "birth place" {
		t.Errorf("AttrLabel = %q", got)
	}
	if got := ItemProp("/people/person/birth_place"); got != "birthPlace" {
		t.Errorf("ItemProp = %q", got)
	}
	if got := AttrLabel("noslash"); got != "noslash" {
		t.Errorf("AttrLabel(noslash) = %q", got)
	}
}

func TestDOMStructure(t *testing.T) {
	_, c := testCorpus(t, 9)
	checked := 0
	for _, p := range c.Pages {
		for i := range p.Blocks {
			b := &p.Blocks[i]
			if b.Type != DOM {
				continue
			}
			b.Root.Walk(func(n *DOMNode) {
				if n.Tag == "tr" {
					if len(n.Children) != 2 || n.Children[0].Tag != "th" || n.Children[1].Tag != "td" {
						t.Fatalf("malformed DOM row on %s", p.URL)
					}
					if n.Children[1].M == nil {
						t.Fatalf("td without mention on %s", p.URL)
					}
					checked++
				}
			})
		}
	}
	if checked == 0 {
		t.Fatal("no DOM rows found")
	}
}

func TestTableStructure(t *testing.T) {
	w, c := testCorpus(t, 10)
	checked := 0
	for _, p := range c.Pages {
		for i := range p.Blocks {
			b := &p.Blocks[i]
			if b.Type != TBL || b.Table == nil {
				continue
			}
			tbl := b.Table
			if len(tbl.Attrs) != len(tbl.Predicates) {
				t.Fatalf("attr/predicate mismatch on %s", p.URL)
			}
			for _, row := range tbl.Rows {
				if len(row.Cells) != len(tbl.Attrs) {
					t.Fatalf("row width mismatch on %s", p.URL)
				}
				if w.Ont.Entity(row.Subject) == nil {
					t.Fatalf("table row subject %s unknown", row.Subject)
				}
				for ci, cell := range row.Cells {
					if cell != nil && cell.Predicate != tbl.Predicates[ci] {
						t.Fatalf("cell predicate mismatch on %s", p.URL)
					}
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no tables found")
	}
}

func TestBoilerplateReplication(t *testing.T) {
	_, c := testCorpus(t, 11)
	// Some triple should appear on many pages of one site (boilerplate).
	bySiteTriple := map[string]map[kb.Triple]int{}
	pagesPerSite := map[string]int{}
	for _, p := range c.Pages {
		pagesPerSite[p.Site]++
		if bySiteTriple[p.Site] == nil {
			bySiteTriple[p.Site] = map[kb.Triple]int{}
		}
		seen := map[kb.Triple]bool{}
		for _, m := range p.Mentions() {
			tr := m.Claim()
			if !seen[tr] {
				bySiteTriple[p.Site][tr]++
				seen[tr] = true
			}
		}
	}
	found := false
	for site, triples := range bySiteTriple {
		if pagesPerSite[site] < 5 {
			continue
		}
		for _, n := range triples {
			if n >= pagesPerSite[site] && n >= 5 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no boilerplate statement replicated across a site's pages")
	}
}

func TestPageMentionHelpers(t *testing.T) {
	_, c := testCorpus(t, 12)
	p := c.Pages[0]
	total := 0
	for i := range p.Blocks {
		total += len(p.Blocks[i].Mentions())
	}
	if got := len(p.Mentions()); got != total {
		t.Errorf("Page.Mentions = %d, sum of blocks = %d", got, total)
	}
}

func TestGeneralizedMentionsStillTrue(t *testing.T) {
	w, c := testCorpus(t, 13)
	// Hierarchical-value mentions that are not source errors must be true
	// even when stated at ancestor level.
	checked := 0
	for _, p := range c.Pages {
		for _, m := range p.Mentions() {
			pred := w.Ont.Predicate(m.Predicate)
			if pred == nil || !pred.Hierarchical || m.SourceError {
				continue
			}
			if !w.IsTrue(m.Claim()) {
				t.Fatalf("generalized mention should be true: %+v", m)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no hierarchical mentions found")
	}
}
