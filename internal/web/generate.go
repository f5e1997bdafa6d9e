package web

import (
	"fmt"
	"strconv"
	"strings"

	"kfusion/internal/csr"
	"kfusion/internal/kb"
	"kfusion/internal/randx"
	"kfusion/internal/world"
)

// Config controls corpus generation.
type Config struct {
	// Seed drives all randomness in the corpus (independent of the world
	// seed so several crawls of one world are possible).
	Seed int64

	// NumSites is the number of Web sites. Page counts per site are heavy
	// tailed: "half of the Web pages each contributes a single triple".
	NumSites int

	// MaxPagesPerSite caps the per-site page count.
	MaxPagesPerSite int

	// MeanSiteErrorRate and SiteErrorStdDev shape each site's factual error
	// rate (clamped Gaussian). The paper attributes only ~4% of extraction
	// errors to the sources themselves, so rates are small.
	MeanSiteErrorRate float64
	SiteErrorStdDev   float64

	// GeneralizeRate is the chance a page states a hierarchical value at an
	// ancestor level ("born in USA" for a San Francisco birth), which is
	// true but general (§5.4).
	GeneralizeRate float64

	// BoilerplateRate is the fraction of sites that stamp one fixed
	// statement onto every page (site templates), producing triples that
	// appear on very many URLs — including wrong ones (Figure 7's drops).
	BoilerplateRate float64

	// SyndicationRate is the fraction of sites that COPY content from
	// another site: each of their pages republishes a slice of a source
	// site's statements, errors included. This is the copying-between-
	// sources phenomenon §5.2 wants detected ("we are not sure if a wrong
	// fact has spread out").
	SyndicationRate float64

	// SyndicationShare is the fraction of a copier page's statements that
	// come from the copied site (the rest are its own).
	SyndicationShare float64

	// FactsPerPageMax bounds how many of the topic entity's data items a
	// page states.
	FactsPerPageMax int

	// TableRowsMax bounds rows per TBL block.
	TableRowsMax int
}

// DefaultConfig returns a unit-test-scale corpus configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:              seed,
		NumSites:          250,
		MaxPagesPerSite:   40,
		MeanSiteErrorRate: 0.03,
		SiteErrorStdDev:   0.05,
		GeneralizeRate:    0.2,
		BoilerplateRate:   0.12,
		SyndicationRate:   0.08,
		SyndicationShare:  0.7,
		FactsPerPageMax:   18,
		TableRowsMax:      8,
	}
}

// BenchConfig returns the corpus scale used by the paper-reproduction
// benchmarks.
func BenchConfig(seed int64) Config {
	c := DefaultConfig(seed)
	c.NumSites = 1000
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumSites < 1 {
		return fmt.Errorf("web: NumSites must be >= 1, got %d", c.NumSites)
	}
	if c.MaxPagesPerSite < 1 {
		return fmt.Errorf("web: MaxPagesPerSite must be >= 1, got %d", c.MaxPagesPerSite)
	}
	if c.FactsPerPageMax < 1 || c.TableRowsMax < 1 {
		return fmt.Errorf("web: FactsPerPageMax and TableRowsMax must be >= 1")
	}
	// Written as !(in range) so that NaN, which fails every comparison, is
	// rejected too.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MeanSiteErrorRate", c.MeanSiteErrorRate},
		{"GeneralizeRate", c.GeneralizeRate},
		{"BoilerplateRate", c.BoilerplateRate},
		{"SyndicationRate", c.SyndicationRate},
		{"SyndicationShare", c.SyndicationShare},
	} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("web: %s out of [0,1]: %v", f.name, f.v)
		}
	}
	if !(c.SiteErrorStdDev >= 0) {
		return fmt.Errorf("web: SiteErrorStdDev must be >= 0, got %v", c.SiteErrorStdDev)
	}
	return nil
}

// siteProfile gives each site a characteristic mix of content types. The
// weights are per-page inclusion probabilities per block type, tuned so DOM
// dominates triple contribution, TXT comes second, and TBL is rare —
// Figure 3's proportions.
type siteProfile struct {
	name    string
	include [numContentTypes]float64 // indexed by ContentType
	weight  float64                  // how common the profile is among sites
}

var siteProfiles = []siteProfile{
	{name: "wiki", include: [numContentTypes]float64{TXT: 0.75, DOM: 0.95, TBL: 0.03, ANO: 0.08}, weight: 0.30},
	{name: "news", include: [numContentTypes]float64{TXT: 0.95, DOM: 0.30, TBL: 0.01, ANO: 0.05}, weight: 0.24},
	{name: "directory", include: [numContentTypes]float64{TXT: 0.10, DOM: 0.95, TBL: 0.02, ANO: 0.15}, weight: 0.27},
	{name: "commerce", include: [numContentTypes]float64{TXT: 0.20, DOM: 0.80, TBL: 0.02, ANO: 0.75}, weight: 0.15},
	{name: "data", include: [numContentTypes]float64{TXT: 0.05, DOM: 0.50, TBL: 0.60, ANO: 0.02}, weight: 0.04},
}

// TemplateCount is the number of sentence templates a TXT block writes its
// statements in. TXT extractors carry pattern banks over (template,
// attribute) pairs; a statement is only extractable by an extractor that
// learned its pattern.
const TemplateCount = 8

// AttrLabel converts a predicate ID to its human surface label:
// "/people/person/birth_place" → "birth place".
func AttrLabel(p kb.PredicateID) string {
	s := string(p)
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	return strings.ReplaceAll(s, "_", " ")
}

// ObjectSurface renders an object's surface form using the world's entity
// names.
func ObjectSurface(w *world.World, o kb.Object) string {
	switch o.Kind {
	case kb.KindEntity:
		if e := w.Ont.Entity(kb.EntityID(o.Str)); e != nil {
			return e.Name
		}
		return o.Str
	case kb.KindNumber:
		return strconv.FormatFloat(o.Num, 'f', -1, 64)
	default:
		return o.Str
	}
}

// Generate crawls the world: builds the synthetic corpus.
//
// Sites are crawled in parallel on GOMAXPROCS workers, each over a contiguous
// range of site indexes, and merged in site order; copier sites, which read
// the mentions of the originals they draw, are a second parallel pass merged
// in copier order. Every draw comes from a stream split off the root by site,
// page or copier index (randx.Source.SplitN never consumes its parent), and
// the world is read-only here, so the corpus is the same bytes at every
// worker count.
func Generate(w *world.World, cfg Config) (*Corpus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := randx.New(cfg.Seed)
	profilePick := randx.NewCategorical(profileWeights())

	// First pass: original sites. Copiers are decided up front and filled
	// in afterwards so they can splice statements from rendered originals.
	sites := make([]crawledSite, cfg.NumSites)
	csr.ParallelRange(cfg.NumSites, 0, func(_, lo, hi int) {
		for si := lo; si < hi; si++ {
			sites[si] = crawlSite(w, cfg, root, profilePick, si)
		}
	})

	corpus := &Corpus{SiteErrorRate: make(map[string]float64, cfg.NumSites)}
	var copiers, originals []int
	nPages := 0
	for si := range sites {
		if sites[si].copier {
			copiers = append(copiers, si)
			continue
		}
		originals = append(originals, si)
		nPages += len(sites[si].pages)
	}

	// A copier's original is the first draw of its stream. Only the drawn
	// originals' mentions are ever read, so only their pools are built.
	streams := make([]*randx.Source, len(copiers))
	from := make([]*crawledSite, len(copiers))
	drawn := make([]bool, len(sites))
	for i, si := range copiers {
		streams[i] = root.SplitN("copier", int64(si))
		if len(originals) > 0 {
			oi := originals[streams[i].Intn(len(originals))]
			from[i], drawn[oi] = &sites[oi], true
		}
	}
	csr.ParallelRange(len(sites), 0, func(_, lo, hi int) {
		for si := lo; si < hi; si++ {
			if !drawn[si] {
				continue
			}
			s := &sites[si]
			for _, page := range s.pages {
				s.mentions = page.appendMentions(s.mentions)
			}
		}
	})

	// Second pass: copier sites republish a source site's statements —
	// errors included, which is exactly what makes copying detectable and
	// dangerous ("copied false values").
	copied := make([]crawledSite, len(copiers))
	csr.ParallelRange(len(copiers), 0, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			copied[i] = crawlCopier(w, cfg, streams[i], sites[copiers[i]].prof, from[i], copiers[i])
		}
	})
	for i := range copied {
		nPages += len(copied[i].pages)
	}

	corpus.Pages = make([]*Page, 0, nPages)
	for _, si := range originals {
		s := &sites[si]
		corpus.SiteErrorRate[s.name] = s.errRate
		corpus.Pages = append(corpus.Pages, s.pages...)
	}
	for i := range copied {
		s := &copied[i]
		corpus.SiteErrorRate[s.name] = s.errRate
		corpus.Pages = append(corpus.Pages, s.pages...)
	}
	return corpus, nil
}

// crawledSite is one site's share of the corpus, recorded by index so the
// parallel passes merge in a fixed order.
type crawledSite struct {
	copier   bool // drawn as a copier: only prof is set by the first pass
	prof     siteProfile
	name     string
	errRate  float64
	pages    []*Page   // pages with at least one mention, in page order
	mentions []Mention // the pages' mentions in order, built only for a drawn original: a copier's pool
}

// crawlSite draws site si from its own stream. A copier keeps only its
// profile; crawlCopier fills it in once every original is rendered.
func crawlSite(w *world.World, cfg Config, root *randx.Source, profilePick *randx.Categorical, si int) crawledSite {
	ssrc := root.SplitN("site", int64(si))
	s := crawledSite{prof: siteProfiles[profilePick.Sample(ssrc)]}
	if si > 0 && ssrc.Bool(cfg.SyndicationRate) {
		s.copier = true
		return s
	}
	s.name = fmt.Sprintf("%s%03d.example.com", s.prof.name, si)
	s.errRate = ssrc.Clamped01(cfg.MeanSiteErrorRate, cfg.SiteErrorStdDev)

	nPages := pageCount(ssrc, cfg)
	var boiler *Mention
	if ssrc.Bool(cfg.BoilerplateRate) {
		boiler = mintBoilerplate(w, ssrc, s.errRate)
	}
	for pi := 0; pi < nPages; pi++ {
		psrc := ssrc.SplitN("page", int64(pi))
		page := renderPage(w, cfg, psrc, s.name, pi, s.prof, s.errRate, boiler)
		if page.hasMentions() {
			s.pages = append(s.pages, page)
		}
	}
	return s
}

// crawlCopier renders copier site si of profile prof, splicing in statements
// from src, the original its stream ssrc drew (nil when there is none);
// ssrc has made that draw. It only reads src.
func crawlCopier(w *world.World, cfg Config, ssrc *randx.Source, prof siteProfile, src *crawledSite, si int) crawledSite {
	s := crawledSite{name: fmt.Sprintf("%s%03d.example.com", prof.name, si)}
	var pool []Mention
	if src != nil {
		pool = src.mentions
		if len(pool) > 0 {
			s.errRate = src.errRate
		}
	}
	if len(pool) == 0 {
		// Nothing to copy: behave like an ordinary site.
		s.errRate = ssrc.Clamped01(cfg.MeanSiteErrorRate, cfg.SiteErrorStdDev)
	}
	nPages := pageCount(ssrc, cfg)
	for pi := 0; pi < nPages; pi++ {
		psrc := ssrc.SplitN("page", int64(pi))
		page := renderPage(w, cfg, psrc, s.name, pi, prof, s.errRate, nil)
		if len(pool) > 0 {
			spliceCopiedMentions(psrc, page, pool, cfg.SyndicationShare)
		}
		if page.hasMentions() {
			s.pages = append(s.pages, page)
		}
	}
	return s
}

// MustGenerate is Generate for static configs.
func MustGenerate(w *world.World, cfg Config) *Corpus {
	c, err := Generate(w, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func profileWeights() []float64 {
	ws := make([]float64, len(siteProfiles))
	for i, p := range siteProfiles {
		ws[i] = p.weight
	}
	return ws
}

// pageCount draws a heavy-tailed page count: many single-page sites, a few
// large ones.
func pageCount(src *randx.Source, cfg Config) int {
	if src.Bool(0.45) {
		return 1
	}
	n := 1 + int(src.LogNormal01(0.9, 1.1))
	if n > cfg.MaxPagesPerSite {
		n = cfg.MaxPagesPerSite
	}
	if n < 1 {
		n = 1
	}
	return n
}

// mintBoilerplate creates the statement a templated site stamps onto every
// page. More often than regular statements, it is wrong — site templates
// carry stale or mis-merged data.
func mintBoilerplate(w *world.World, src *randx.Source, errRate float64) *Mention {
	topic := w.SampleEntity(src)
	items := w.Truth.PredicatesOf(topic)
	if len(items) == 0 {
		return nil
	}
	pred := items[src.Intn(len(items))]
	d := kb.DataItem{Subject: topic, Predicate: pred}
	objs := w.Truth.Objects(d)
	if len(objs) == 0 {
		return nil
	}
	m := mintMention(w, src, d, objs[src.Intn(len(objs))], 0.5*boilerWrongBoost(errRate))
	return &m
}

func boilerWrongBoost(errRate float64) float64 {
	// Boilerplate is wrong at a substantially inflated rate but never
	// certainly wrong.
	v := 0.3 + 4*errRate
	if v > 0.9 {
		v = 0.9
	}
	return v
}

// mintMention renders a mention for data item d with intended object obj,
// injecting a source factual error with probability errRate.
func mintMention(w *world.World, src *randx.Source, d kb.DataItem, obj kb.Object, errRate float64) Mention {
	sourceError := false
	if src.Bool(errRate) {
		avoid := map[kb.Object]bool{}
		for _, o := range w.Truth.Objects(d) {
			avoid[o] = true
		}
		wrong := w.WrongValue(src, d.Predicate, avoid)
		// A drawn "wrong" value can still be true for hierarchical
		// predicates (an ancestor of the true city); only flag values that
		// are genuinely false.
		if !wrong.IsZero() && !avoid[wrong] && !w.IsTrue(d.WithObject(wrong)) {
			obj = wrong
			sourceError = true
		}
	}
	subjName := string(d.Subject)
	if e := w.Ont.Entity(d.Subject); e != nil {
		subjName = e.Name
	}
	return Mention{
		Subject:     d.Subject,
		SubjectName: subjName,
		Predicate:   d.Predicate,
		AttrLabel:   AttrLabel(d.Predicate),
		Object:      obj,
		ObjectName:  ObjectSurface(w, obj),
		SourceError: sourceError,
	}
}

// maybeGeneralize replaces a hierarchical entity value with a random
// ancestor with probability rate.
func maybeGeneralize(w *world.World, src *randx.Source, p kb.PredicateID, obj kb.Object, rate float64) kb.Object {
	pred := w.Ont.Predicate(p)
	if pred == nil || !pred.Hierarchical || !src.Bool(rate) {
		return obj
	}
	base, ok := obj.Entity()
	if !ok {
		return obj
	}
	anc := w.Hier.Ancestors(base)
	if len(anc) == 0 {
		return obj
	}
	return kb.EntityObject(anc[src.Intn(len(anc))])
}

// renderPage builds one page: a topic entity, a set of its facts, and one
// block per content type the site profile includes.
func renderPage(w *world.World, cfg Config, src *randx.Source, site string, pi int, prof siteProfile, errRate float64, boiler *Mention) *Page {
	page := &Page{
		URL:  fmt.Sprintf("http://%s/p%d", site, pi),
		Site: site,
	}
	page.Topic = w.SampleEntity(src)

	// Gather the topic's mentions.
	var mentions []Mention
	preds := w.Truth.PredicatesOf(page.Topic)
	perm := src.Perm(len(preds))
	limit := cfg.FactsPerPageMax
	for _, idx := range perm {
		if len(mentions) >= limit {
			break
		}
		d := kb.DataItem{Subject: page.Topic, Predicate: preds[idx]}
		objs := w.Truth.Objects(d)
		// State one or two of the item's true values.
		take := 1
		if len(objs) > 1 && src.Bool(0.45) {
			take = 2
		}
		op := src.Perm(len(objs))
		for k := 0; k < take && k < len(op); k++ {
			obj := maybeGeneralize(w, src, d.Predicate, objs[op[k]], cfg.GeneralizeRate)
			mentions = append(mentions, mintMention(w, src, d, obj, errRate))
		}
	}
	if boiler != nil {
		mentions = append(mentions, *boiler)
	}

	// Render blocks. Each content block independently includes each mention
	// with high probability, so the same fact sometimes appears in several
	// forms (the small overlaps of Figure 3).
	for _, ct := range ContentTypes() {
		if !src.Bool(prof.include[ct]) {
			continue
		}
		switch ct {
		case TXT:
			page.Blocks = append(page.Blocks, renderTXT(src, site, mentions))
		case DOM:
			page.Blocks = append(page.Blocks, renderDOM(src, mentions))
		case TBL:
			if b, ok := renderTBL(w, cfg, src, errRate); ok {
				page.Blocks = append(page.Blocks, b)
			}
		case ANO:
			page.Blocks = append(page.Blocks, renderANO(src, mentions))
		}
	}
	return page
}

// renderTXT writes about 80% of the page's statements as sentences, each in
// one of the site's preferred templates or, now and then, any template.
func renderTXT(src *randx.Source, site string, mentions []Mention) Block {
	b := Block{Type: TXT}
	// Sites have house style: a site prefers a couple of templates.
	prefA := src.Split(site + "/tplA").Intn(TemplateCount)
	prefB := src.Split(site + "/tplB").Intn(TemplateCount)
	for _, m := range mentions {
		if !src.Bool(0.8) {
			continue
		}
		ti := prefA
		if src.Bool(0.35) {
			ti = prefB
		}
		if src.Bool(0.15) {
			ti = src.Intn(TemplateCount)
		}
		b.Mentions = append(b.Mentions, m)
		b.Templates = append(b.Templates, ti)
	}
	return b
}

// renderDOM states about 90% of the page's statements as infobox rows.
func renderDOM(src *randx.Source, mentions []Mention) Block {
	b := Block{Type: DOM}
	for _, m := range mentions {
		if src.Bool(0.9) {
			b.Mentions = append(b.Mentions, m)
		}
	}
	return b
}

// renderTBL builds a relational table over entities of one type: a few
// random rows of that type, each stating its two or three columns'
// predicates where the world has a value. The block lists the non-empty
// cells row by row; a table with none is not rendered.
func renderTBL(w *world.World, cfg Config, src *randx.Source, errRate float64) (Block, bool) {
	// Choose a type with enough entities and a couple of its predicates.
	types := w.Ont.Types()
	tid := types[src.Intn(len(types))]
	ents := w.Ont.EntitiesOfType(tid)
	preds := w.Ont.PredicatesOfType(tid)
	if len(ents) < 3 || len(preds) < 2 {
		return Block{}, false
	}
	nCols := 2
	if len(preds) > 2 && src.Bool(0.5) {
		nCols = 3
	}
	perm := src.Perm(len(preds))
	b := Block{Type: TBL}
	nRows := 3 + src.Intn(cfg.TableRowsMax-2)
	for r := 0; r < nRows; r++ {
		eid := ents[src.Intn(len(ents))]
		for c := 0; c < nCols; c++ {
			pid := preds[perm[c]].ID
			d := kb.DataItem{Subject: eid, Predicate: pid}
			objs := w.Truth.Objects(d)
			if len(objs) == 0 {
				continue
			}
			obj := maybeGeneralize(w, src, pid, objs[src.Intn(len(objs))], cfg.GeneralizeRate)
			b.Mentions = append(b.Mentions, mintMention(w, src, d, obj, errRate))
		}
	}
	return b, len(b.Mentions) > 0
}

// renderANO annotates about 75% of the page's statements.
func renderANO(src *randx.Source, mentions []Mention) Block {
	b := Block{Type: ANO}
	for _, m := range mentions {
		if src.Bool(0.75) {
			b.Mentions = append(b.Mentions, m)
		}
	}
	return b
}

// spliceCopiedMentions injects copied statements into a copier page's
// blocks, replacing roughly share of its own TXT and DOM content and adding
// to its ANO block; a copied sentence draws its template.
func spliceCopiedMentions(src *randx.Source, page *Page, pool []Mention, share float64) {
	nCopy := 1 + int(share*8)
	var copied []Mention
	for i := 0; i < nCopy; i++ {
		copied = append(copied, pool[src.Intn(len(pool))])
	}
	for bi := range page.Blocks {
		b := &page.Blocks[bi]
		switch b.Type {
		case TXT:
			if n := len(b.Mentions); n > 0 && share > 0 {
				k := 1 + int(float64(n)*(1-share))
				b.Mentions, b.Templates = b.Mentions[:k], b.Templates[:k]
			}
			for _, m := range copied {
				b.Mentions = append(b.Mentions, m)
				b.Templates = append(b.Templates, src.Intn(TemplateCount))
			}
		case DOM:
			if n := len(b.Mentions); n > 0 && share > 0 {
				b.Mentions = b.Mentions[:1+int(float64(n)*(1-share))]
			}
			b.Mentions = append(b.Mentions, copied...)
		case ANO:
			b.Mentions = append(b.Mentions, copied...)
		}
	}
}
