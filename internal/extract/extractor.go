package extract

import (
	"strconv"
	"strings"

	"kfusion/internal/kb"
	"kfusion/internal/randx"
	"kfusion/internal/web"
	"kfusion/internal/world"
)

// ConfStyle selects an extractor's confidence model. Figure 21 shows the
// real extractors differ wildly: some produce informative confidences, some
// uninformative ones, and some actively misleading ones.
type ConfStyle uint8

const (
	// ConfNone: the extractor reports no confidence (DOM5, TBL2).
	ConfNone ConfStyle = iota
	// ConfInformative: confidence correlates with correctness, spread
	// around the middle (TXT1 style).
	ConfInformative
	// ConfBimodal: confidences cluster near 0 and 1 and correlate with
	// correctness (DOM2 style).
	ConfBimodal
	// ConfUninformative: confidences cluster near 0 and 1 but are
	// independent of correctness (ANO style).
	ConfUninformative
	// ConfMisleading: accuracy peaks at medium confidence (TBL style).
	ConfMisleading
)

// PatternStyle selects how an extractor derives its pattern identifier.
type PatternStyle uint8

const (
	// PatNone: the extractor has no patterns (Table 2's "No pat.").
	PatNone PatternStyle = iota
	// PatTemplate: patterns key on (sentence template, attribute) — the
	// distant-supervision TXT extractors.
	PatTemplate
	// PatSiteAttr: patterns key on (site, attribute) — wrapper-induction
	// style DOM extraction.
	PatSiteAttr
)

// Extractor simulates one of the paper's 12 extractors.
type Extractor struct {
	// Name is the paper's extractor name, e.g. "TXT1".
	Name string
	// ContentTypes lists the content forms this extractor reads. DOM
	// extractors may include TBL: "an extractor targeted at DOM can also
	// extract from TBL since Web tables are in DOM-tree format".
	ContentTypes []web.ContentType
	// SiteClasses restricts the extractor to site profiles (e.g. TXT4 runs
	// only on wiki sites); empty means all sites.
	SiteClasses []string

	// Recall is the probability the extractor fires on an available,
	// pattern-covered statement.
	Recall float64
	// Patterns selects the pattern identifier scheme.
	Patterns PatternStyle
	// PatternCoverage is the fraction of patterns the extractor knows
	// (deterministic per pattern); 1 when Patterns == PatNone.
	PatternCoverage float64
	// ToxicPatternRate is the fraction of known patterns that are
	// systematically broken: every firing produces the same wrong reading.
	ToxicPatternRate float64
	// TripleIDRate is the stochastic triple-identification error rate,
	// scaled per predicate by the world's extraction difficulty.
	TripleIDRate float64

	// Linker resolves entity mentions; shared linkers create correlated
	// errors across extractors.
	Linker *Linker
	// Mapper resolves attribute labels to predicates.
	Mapper *SchemaMapper

	// Conf selects the confidence model.
	Conf ConfStyle
	// EntityPredsOnly restricts extraction to entity-valued predicates
	// (DOM3/DOM4 "focus on identifying entity types").
	EntityPredsOnly bool
}

// siteClass extracts the profile prefix of a synthetic site name
// ("wiki042.example.com" → "wiki").
func siteClass(site string) string {
	for i := 0; i < len(site); i++ {
		if site[i] >= '0' && site[i] <= '9' {
			return site[:i]
		}
	}
	return site
}

// runsOn reports whether the extractor processes pages of this site.
func (e *Extractor) runsOn(site string) bool {
	if len(e.SiteClasses) == 0 {
		return true
	}
	c := siteClass(site)
	for _, s := range e.SiteClasses {
		if s == c {
			return true
		}
	}
	return false
}

// reads reports whether the extractor parses the given content type.
func (e *Extractor) reads(ct web.ContentType) bool {
	for _, t := range e.ContentTypes {
		if t == ct {
			return true
		}
	}
	return false
}

// appendPattern appends the pattern identifier of a mention to buf —
// "tpl<N>|<label>" or "<site class>|<label>", nothing when the extractor has
// no patterns.
func (e *Extractor) appendPattern(buf []byte, page *web.Page, tpl int, m web.Mention) []byte {
	switch e.Patterns {
	case PatTemplate:
		buf = strconv.AppendInt(append(buf, "tpl"...), int64(tpl), 10)
	case PatSiteAttr:
		buf = append(buf, siteClass(page.Site)...)
	default:
		return buf
	}
	return append(append(buf, '|'), m.AttrLabel...)
}

// knowsPattern reports whether the extractor knows a mention's pattern (key,
// from appendPattern) and can therefore extract the statement: always
// without patterns, otherwise when hashProb(e.Name, "pat", key) falls under
// the coverage, hashed from the bytes.
func (e *Extractor) knowsPattern(key []byte) bool {
	if len(key) == 0 {
		return true
	}
	h := fnvAdd(fnvAdd(fnvAdd(uint64(fnvOffset), e.Name), "\x00pat\x00"), key)
	return unitOf(fnvAdd(h, "\x00")) < e.PatternCoverage
}

// Extract runs the extractor over one page. src must be a stream dedicated
// to this (extractor, page) pair so corpora extract deterministically and
// independently of page order.
func (e *Extractor) Extract(w *world.World, page *web.Page, src *randx.Source) []Extraction {
	return e.appendExtractions(nil, w, readPage(page), src, randx.New(0))
}

// pageView is a page beside its mentions, collected once: the pool each
// misreading that borrows a neighbouring statement draws from.
type pageView struct {
	*web.Page
	mentions []web.Mention // Page.AppendMentions
}

func readPage(page *web.Page) *pageView {
	v := new(pageView)
	v.read(page)
	return v
}

// read makes v the view of page, reusing v's slice.
func (v *pageView) read(page *web.Page) {
	v.Page = page
	v.mentions = page.AppendMentions(v.mentions[:0])
}

// appendExtractions appends the extractor's output on page to out. One
// extraction per (extractor, URL, triple): a triple already appended by this
// call is dropped, found by scanning what the call appended — a handful of
// rows per (extractor, page), so no set is allocated. src is the (extractor,
// page) stream; scratch is a reusable stream the linker and schema mapper
// reseed per name (Linker.Resolve), never src.
func (e *Extractor) appendExtractions(out []Extraction, w *world.World, page *pageView, src, scratch *randx.Source) []Extraction {
	if !e.runsOn(page.Site) {
		return out
	}
	start := len(out)
	for bi := range page.Blocks {
		b := &page.Blocks[bi]
		if !e.reads(b.Type) {
			continue
		}
		for k, m := range b.Mentions {
			tpl := 0
			if b.Type == web.TXT {
				tpl = b.Templates[k]
			}
			out = e.extractMention(w, page, tpl, m, src, scratch, out, start)
		}
	}
	return out
}

// extractMention appends the extraction of one mention to out unless
// out[start:] already holds its triple.
func (e *Extractor) extractMention(w *world.World, page *pageView, tpl int, m web.Mention, src, scratch *randx.Source, out []Extraction, start int) []Extraction {
	pred := w.Ont.Predicate(m.Predicate)
	if e.EntityPredsOnly && (pred == nil || pred.Domain != kb.DomainEntity) {
		return out
	}
	var buf [64]byte
	key := e.appendPattern(buf[:0], page.Page, tpl, m)
	if !e.knowsPattern(key) {
		return out
	}
	if !src.Bool(e.Recall) {
		return out
	}
	pattern := string(key) // only a mention the recall draw keeps needs the string

	triple, kind := e.interpret(w, page, pattern, m, src, scratch)
	if triple.Object.IsZero() {
		return out
	}
	if kind == ErrNone && m.SourceError {
		kind = ErrSource
	}
	for i := start; i < len(out); i++ {
		if out[i].Triple == triple {
			return out // one extraction per (extractor, URL, triple)
		}
	}
	return append(out, Extraction{
		Triple:     triple,
		Extractor:  e.Name,
		Pattern:    pattern,
		URL:        page.URL,
		Site:       page.Site,
		Confidence: e.confidence(src, kind),
		Error:      kind,
	})
}

// interpret parses a mention into a triple, possibly injecting errors. The
// returned ErrorKind is the dominant *extraction* error (ErrNone when the
// extractor faithfully read the page).
func (e *Extractor) interpret(w *world.World, page *pageView, pattern string, m web.Mention, src, scratch *randx.Source) (kb.Triple, ErrorKind) {
	// Toxic patterns systematically misread: same wrong output for the
	// same input everywhere, across all pages the pattern fires on.
	if pattern != "" && hashProb(e.Name, "toxic", pattern) < e.ToxicPatternRate {
		return e.toxicReading(page.Page, pattern, m), ErrTripleID
	}

	// Entity linkage: resolve the subject mention and, for entity-valued
	// objects, the object mention. Mistakes are deterministic per name.
	subject, subjErr := e.Linker.Resolve(m.SubjectName, m.Subject, scratch)
	object := m.Object
	objErr := false
	if _, isEnt := m.Object.Entity(); isEnt {
		resolved, bad := e.Linker.Resolve(m.ObjectName, kb.EntityID(m.Object.Str), scratch)
		object = kb.EntityObject(resolved)
		objErr = bad
	}

	// Predicate linkage via the schema mapper.
	predicate, predErr := e.Mapper.Map(m.Predicate, scratch)

	// Stochastic triple-identification errors, scaled by how hard the
	// predicate is to extract (Figure 4's per-predicate spread). Rates may
	// exceed 1 before clamping: the weakest extractors (DOM2-style) are
	// wrong on easy predicates too.
	rate := e.TripleIDRate * (0.35 + 1.3*w.Difficulty[m.Predicate])
	if rate > 0.97 {
		rate = 0.97
	}
	if src.Bool(rate) {
		return e.tripleIDError(w, page, m, subject, predicate, object, src), ErrTripleID
	}

	t := kb.Triple{Subject: subject, Predicate: predicate, Object: object}
	switch {
	case subjErr || objErr:
		return t, ErrEntityLink
	case predErr:
		return t, ErrPredicateLink
	default:
		return t, ErrNone
	}
}

// toxicReading is the fixed wrong output of a broken pattern: it mangles the
// object span deterministically, so every page the pattern fires on yields
// the same wrong triple for the same statement — wrong triples with very
// many supporting URLs (Figure 7's drops).
func (e *Extractor) toxicReading(page *web.Page, pattern string, m web.Mention) kb.Triple {
	switch hashPick(3, e.Name, "toxicmode", pattern) {
	case 0:
		// Take only the first word of the object span ("part of the album
		// name as the artist").
		return kb.Triple{Subject: m.Subject, Predicate: m.Predicate, Object: kb.StringObject(firstWord(m.ObjectName))}
	case 1:
		// Read the attribute label cell as the value.
		return kb.Triple{Subject: m.Subject, Predicate: m.Predicate, Object: kb.StringObject(m.AttrLabel)}
	default:
		// Concatenate subject and object spans.
		return kb.Triple{Subject: m.Subject, Predicate: m.Predicate, Object: kb.StringObject(firstWord(m.SubjectName) + " " + m.ObjectName)}
	}
}

// tripleIDError produces a plausible wrong reading of the page region. Most
// mis-segmentations land on OTHER data items (wrong subject, swapped roles):
// the paper's junk spreads across items ("taking part of the album name as
// the artist"), so most items carry either the truth or nothing — which is
// what exposes VOTE's pathologies on single-value items (Figure 9).
func (e *Extractor) tripleIDError(w *world.World, page *pageView, m web.Mention, subject kb.EntityID, predicate kb.PredicateID, object kb.Object, src *randx.Source) kb.Triple {
	switch src.Intn(8) {
	case 0, 1, 2, 3:
		// Attach the value to another entity mentioned on the page.
		if other := otherSubject(page, m.Subject, src); other != "" {
			return kb.Triple{Subject: other, Predicate: predicate, Object: object}
		}
		fallthrough
	case 4, 5:
		// Mangle the object span.
		return kb.Triple{Subject: subject, Predicate: predicate, Object: mangleObject(m, src)}
	case 6:
		// Swap subject and object when the object is an entity.
		if obj, ok := object.Entity(); ok {
			return kb.Triple{Subject: obj, Predicate: predicate, Object: kb.EntityObject(subject)}
		}
		return kb.Triple{Subject: subject, Predicate: predicate, Object: mangleObject(m, src)}
	default:
		// Attach a neighbouring statement's value to this item.
		if v := otherValue(page, m, src); !v.IsZero() {
			return kb.Triple{Subject: subject, Predicate: predicate, Object: v}
		}
		return kb.Triple{Subject: subject, Predicate: predicate, Object: mangleObject(m, src)}
	}
}

func otherSubject(page *pageView, not kb.EntityID, src *randx.Source) kb.EntityID {
	ms := page.mentions
	for try := 0; try < 4 && len(ms) > 0; try++ {
		c := ms[src.Intn(len(ms))].Subject
		if c != not {
			return c
		}
	}
	if page.Topic != "" && page.Topic != not {
		return page.Topic
	}
	return ""
}

func otherValue(page *pageView, m web.Mention, src *randx.Source) kb.Object {
	ms := page.mentions
	for try := 0; try < 4 && len(ms) > 0; try++ {
		c := ms[src.Intn(len(ms))]
		if c.Object != m.Object {
			return c.Object
		}
	}
	return kb.Object{}
}

// mangleObject produces long-tail span-reading garbage. Unlike the toxic
// patterns (whose wrong output is deliberately repeatable), these mistakes
// vary per extraction: real extractors mis-segment differently in different
// page contexts, so most wrong readings are near-unique strings with little
// accumulated support.
func mangleObject(m web.Mention, src *randx.Source) kb.Object {
	switch m.Object.Kind {
	case kb.KindNumber:
		// Off-by-digit misreadings.
		switch src.Intn(3) {
		case 0:
			return kb.NumberObject(m.Object.Num*10 + float64(src.Intn(10)))
		case 1:
			return kb.NumberObject(m.Object.Num + float64(1+src.Intn(9)))
		default:
			return kb.NumberObject(float64(int(m.Object.Num) / 10))
		}
	default:
		s := m.ObjectName
		switch src.Intn(4) {
		case 0:
			return kb.StringObject(firstWord(s))
		case 1:
			return kb.StringObject(lastWord(s))
		case 2:
			// Random truncation: a distinct garbage string per extraction.
			if len(s) > 2 {
				return kb.StringObject(s[:1+src.Intn(len(s)-1)])
			}
			return kb.StringObject(s + "?")
		default:
			// Span overrun: the value glued to neighbouring words.
			return kb.StringObject(s + " " + firstWord(m.SubjectName))
		}
	}
}

func firstWord(s string) string {
	if i := strings.IndexByte(s, ' '); i > 0 {
		return s[:i]
	}
	return s
}

func lastWord(s string) string {
	if i := strings.LastIndexByte(s, ' '); i >= 0 && i+1 < len(s) {
		return s[i+1:]
	}
	return s
}

// confidence draws a self-reported confidence given whether the extraction
// was corrupted. Source errors look like faithful extractions to the
// extractor, so they get "correct"-shaped confidences.
func (e *Extractor) confidence(src *randx.Source, kind ErrorKind) float64 {
	correct := kind == ErrNone || kind == ErrSource
	switch e.Conf {
	case ConfNone:
		return -1
	case ConfInformative:
		if correct {
			return src.Clamped01(0.68, 0.18)
		}
		return src.Clamped01(0.38, 0.18)
	case ConfBimodal:
		if correct {
			if src.Bool(0.85) {
				return src.Clamped01(0.92, 0.08)
			}
			return src.Clamped01(0.15, 0.1)
		}
		if src.Bool(0.72) {
			return src.Clamped01(0.08, 0.08)
		}
		return src.Clamped01(0.9, 0.08)
	case ConfUninformative:
		if src.Bool(0.5) {
			return src.Clamped01(0.9, 0.1)
		}
		return src.Clamped01(0.12, 0.1)
	case ConfMisleading:
		// Accuracy peaks at medium confidence: correct extractions get
		// mid confidences, wrong ones get extreme ones.
		if correct {
			return src.Clamped01(0.5, 0.12)
		}
		if src.Bool(0.5) {
			return src.Clamped01(0.9, 0.1)
		}
		return src.Clamped01(0.1, 0.1)
	default:
		return -1
	}
}
