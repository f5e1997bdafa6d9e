// Package web synthesizes the Web corpus the extractors run over: sites and
// pages carrying knowledge in the paper's four content forms — text (TXT),
// DOM trees (DOM), Web tables (TBL) and schema.org annotations (ANO) —
// rendered from the ground-truth world with source-level factual errors
// injected at a per-site rate.
//
// Each rendered statement keeps its underlying Mention (what the page
// *means*): extractors parse the surface forms, and the simulator uses the
// mention to inject well-formed extraction errors and to attribute mistakes
// during error analysis.
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

// Mention is the page's intended reading of one statement. Surface forms
// (names, labels) are what extractors parse; the IDs record the intent.
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

// Sentence is one TXT statement: a surface sentence plus its mention and the
// template that produced it (which TXT extractors must know to parse it).
type Sentence struct {
	Text     string
	Template int
	M        Mention
}

// DOMNode is a simplified DOM tree node. Value-bearing nodes carry the
// mention.
type DOMNode struct {
	Tag      string
	Text     string
	Children []*DOMNode
	M        *Mention
}

// Walk visits the node and all descendants depth-first.
func (n *DOMNode) Walk(fn func(*DOMNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Table is a TBL block: a header row naming attributes and one row per
// subject entity. Cell[i][j] holds the value of Attrs[j] for row subject i.
type Table struct {
	// SubjectColumn is the header label of column 0 (the entity column).
	SubjectColumn string
	Attrs         []string // surface labels of columns 1..n
	Predicates    []kb.PredicateID
	Rows          []TableRow
}

// TableRow is one table row: the subject mention plus one cell per attribute
// column (cells may be empty mentions when the value is missing).
type TableRow struct {
	SubjectName string
	Subject     kb.EntityID
	Cells       []*Mention
}

// Annotation is one ANO statement: a schema.org-style itemprop plus value.
type Annotation struct {
	ItemProp string
	Value    string
	M        Mention
}

// Block is one content block of a page.
type Block struct {
	Type        ContentType
	Sentences   []Sentence   // TXT
	Root        *DOMNode     // DOM
	Table       *Table       // TBL
	Annotations []Annotation // ANO
}

// Mentions returns all mentions in the block, in document order.
func (b *Block) Mentions() []Mention { return b.AppendMentions(nil) }

// AppendMentions appends the block's mentions to dst in document order and
// returns the extended slice, so a reader collecting a page's mentions
// copies each once.
func (b *Block) AppendMentions(dst []Mention) []Mention {
	switch b.Type {
	case TXT:
		for _, s := range b.Sentences {
			dst = append(dst, s.M)
		}
	case DOM:
		b.Root.Walk(func(n *DOMNode) {
			if n.M != nil {
				dst = append(dst, *n.M)
			}
		})
	case TBL:
		if b.Table != nil {
			for _, r := range b.Table.Rows {
				for _, c := range r.Cells {
					if c != nil {
						dst = append(dst, *c)
					}
				}
			}
		}
	case ANO:
		for _, a := range b.Annotations {
			dst = append(dst, a.M)
		}
	}
	return dst
}

// hasMention reports whether the block holds a mention, without collecting
// them.
func (b *Block) hasMention() bool {
	switch b.Type {
	case TXT:
		return len(b.Sentences) > 0
	case DOM:
		return b.Root.hasMention()
	case TBL:
		if b.Table != nil {
			for _, r := range b.Table.Rows {
				for _, c := range r.Cells {
					if c != nil {
						return true
					}
				}
			}
		}
	case ANO:
		return len(b.Annotations) > 0
	}
	return false
}

// hasMention reports whether the node or a descendant carries a mention.
func (n *DOMNode) hasMention() bool {
	if n == nil {
		return false
	}
	if n.M != nil {
		return true
	}
	for _, c := range n.Children {
		if c.hasMention() {
			return true
		}
	}
	return false
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
		dst = p.Blocks[i].AppendMentions(dst)
	}
	return dst
}

// hasMentions reports whether the page holds a mention — len(Mentions()) > 0
// without collecting them.
func (p *Page) hasMentions() bool {
	for i := range p.Blocks {
		if p.Blocks[i].hasMention() {
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
