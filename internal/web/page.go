// Package web synthesizes the Web corpus the extractors run over: sites and
// pages carrying knowledge in the paper's four content forms — text (TXT),
// DOM trees (DOM), Web tables (TBL) and schema.org annotations (ANO) — drawn
// from the ground-truth world with source-level factual errors injected at a
// per-site rate.
//
// A page is a list of blocks, one per content form it carries, and a block is
// the list of statements (Mentions) it holds. No surface text is rendered:
// an extractor reads a mention's names and attribute label, and for TXT the
// sentence template it was written in, and draws its linkage and
// schema-alignment errors from them; the mention's IDs record what the page
// meant, for injecting well-formed errors and attributing mistakes during
// error analysis.
package web

import (
	"fmt"

	"kfusion/internal/kb"
)

// ContentType is one of the four Web content forms of §3.1.2.
type ContentType uint8

const (
	// TXT is free text; triples hide in sentences.
	TXT ContentType = iota
	// DOM is DOM-tree content (infoboxes, lists, deep-web results).
	DOM
	// TBL is relational Web tables.
	TBL
	// ANO is webmaster annotations (schema.org).
	ANO
	numContentTypes = 4
)

// String returns the paper's name for the content type.
func (c ContentType) String() string {
	switch c {
	case TXT:
		return "TXT"
	case DOM:
		return "DOM"
	case TBL:
		return "TBL"
	case ANO:
		return "ANO"
	default:
		return fmt.Sprintf("ContentType(%d)", uint8(c))
	}
}

// ContentTypes lists all four content types in display order.
func ContentTypes() []ContentType { return []ContentType{TXT, DOM, TBL, ANO} }

// Mention is one statement as a page states it, and all an extractor reads
// of it. SubjectName, AttrLabel and ObjectName are the surface names: the
// entity linker resolves the subject and object names, and the pattern key
// is built from the attribute label. The IDs record the page's intended
// triple, which extraction noise is drawn against and error analysis
// attributes mistakes by.
type Mention struct {
	Subject     kb.EntityID
	SubjectName string
	Predicate   kb.PredicateID
	AttrLabel   string
	Object      kb.Object
	// ObjectName is the surface form of the object: an entity name for
	// entity objects, the raw string or formatted number otherwise.
	ObjectName string
	// SourceError marks statements whose object the *site* got wrong (the
	// 4% error class of §3.2.1 that is not the extractors' fault).
	SourceError bool
}

// Claim returns the triple the mention asserts.
func (m Mention) Claim() kb.Triple {
	return kb.Triple{Subject: m.Subject, Predicate: m.Predicate, Object: m.Object}
}

// Block is one content block of a page: its statements in document order. A
// TXT block also records the sentence template each statement was written
// in, Templates[k] for Mentions[k], because TXT extractors only parse the
// templates their pattern banks learned; other blocks have no templates. A
// TBL block lists its non-empty cells row by row.
type Block struct {
	Type      ContentType
	Mentions  []Mention
	Templates []int // TXT only
}

// Page is one crawled Web page.
type Page struct {
	URL    string
	Site   string
	Topic  kb.EntityID // the page's main entity ("" for pure table pages)
	Blocks []Block
}

// Mentions returns every mention on the page in document order.
func (p *Page) Mentions() []Mention { return p.appendMentions(nil) }

// appendMentions appends every mention on the page to dst in document order.
func (p *Page) appendMentions(dst []Mention) []Mention {
	for i := range p.Blocks {
		dst = append(dst, p.Blocks[i].Mentions...)
	}
	return dst
}

// hasMentions reports whether the page holds a mention.
func (p *Page) hasMentions() bool {
	for i := range p.Blocks {
		if len(p.Blocks[i].Mentions) > 0 {
			return true
		}
	}
	return false
}

// Corpus is the crawled synthetic Web.
type Corpus struct {
	Pages []*Page
	// SiteErrorRate records each site's injected factual error rate, kept
	// for diagnostics and tests.
	SiteErrorRate map[string]float64
}

// NumSites reports the number of distinct sites in the corpus.
func (c *Corpus) NumSites() int { return len(c.SiteErrorRate) }
