// Package kb implements the Freebase-like knowledge-base substrate the paper
// builds on: RDF-style (subject, predicate, object) triples over a typed
// ontology, an in-memory triple store with the indexes knowledge fusion
// needs, and the notion of a data item — a (subject, predicate) pair.
//
// The paper stores knowledge "following the data format and ontology in
// Freebase" (§3.1.1): entities carry IDs, belong to types arranged in a
// shallow two-level hierarchy, and predicates are typed and either functional
// (one true value per data item) or non-functional (several).
package kb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// EntityID identifies an entity, in Freebase MID style, e.g. "/m/07r1h".
type EntityID string

// PredicateID identifies a predicate, e.g. "/people/person/birth_date".
type PredicateID string

// TypeID identifies an entity type in the two-level hierarchy, e.g.
// "/people/person".
type TypeID string

// ObjectKind discriminates the three object representations the paper
// observes: Freebase entities, raw strings, and numbers (§3.1.1 counts 23M
// entity objects, 80M strings, 1M numbers).
type ObjectKind uint8

const (
	// KindEntity marks an object that references an entity by ID.
	KindEntity ObjectKind = iota
	// KindString marks a raw string object (names, descriptions, addresses).
	KindString
	// KindNumber marks a numeric object.
	KindNumber
)

// String returns a short human-readable name for the kind.
func (k ObjectKind) String() string {
	switch k {
	case KindEntity:
		return "entity"
	case KindString:
		return "string"
	case KindNumber:
		return "number"
	default:
		return fmt.Sprintf("ObjectKind(%d)", uint8(k))
	}
}

// Object is a triple's value. Objects are small comparable values so they can
// key maps directly; exactly one of Str / Num is meaningful depending on Kind
// (entity references store their EntityID in Str).
type Object struct {
	Kind ObjectKind
	Str  string
	Num  float64
}

// EntityObject returns an Object referencing the entity id.
func EntityObject(id EntityID) Object { return Object{Kind: KindEntity, Str: string(id)} }

// StringObject returns a raw-string Object.
func StringObject(s string) Object { return Object{Kind: KindString, Str: s} }

// NumberObject returns a numeric Object.
func NumberObject(v float64) Object { return Object{Kind: KindNumber, Num: v} }

// Entity returns the referenced entity ID and whether the object is an
// entity reference.
func (o Object) Entity() (EntityID, bool) {
	if o.Kind == KindEntity {
		return EntityID(o.Str), true
	}
	return "", false
}

// IsZero reports whether the object is the zero Object, which is never a
// legal value.
func (o Object) IsZero() bool { return o == Object{} }

// String renders the object in a compact tagged form used in logs and JSONL
// corpora, e.g. "e:/m/07r1h", "s:Syracuse NY", "n:1986".
func (o Object) String() string {
	switch o.Kind {
	case KindEntity:
		return "e:" + o.Str
	case KindNumber:
		return "n:" + strconv.FormatFloat(o.Num, 'g', -1, 64)
	default:
		return "s:" + o.Str
	}
}

// AppendString appends the tagged form String returns to dst — for writers
// that render many objects into one buffer.
func (o Object) AppendString(dst []byte) []byte {
	switch o.Kind {
	case KindEntity:
		return append(append(dst, "e:"...), o.Str...)
	case KindNumber:
		return strconv.AppendFloat(append(dst, "n:"...), o.Num, 'g', -1, 64)
	default:
		return append(append(dst, "s:"...), o.Str...)
	}
}

// ParseObject parses the tagged form produced by Object.String. It refuses a
// NaN number: NaN equals no object, itself included, so every occurrence of
// one triple would intern as a triple of its own.
func ParseObject(s string) (Object, error) {
	if len(s) < 2 || s[1] != ':' {
		return Object{}, fmt.Errorf("kb: malformed object %q", s)
	}
	body := s[2:]
	switch s[0] {
	case 'e':
		return EntityObject(EntityID(body)), nil
	case 's':
		return StringObject(body), nil
	case 'n':
		v, err := strconv.ParseFloat(body, 64)
		if err != nil {
			return Object{}, fmt.Errorf("kb: malformed number object %q: %v", s, err)
		}
		if math.IsNaN(v) {
			return Object{}, fmt.Errorf("kb: NaN number object %q", s)
		}
		return NumberObject(v), nil
	default:
		return Object{}, fmt.Errorf("kb: unknown object kind in %q", s)
	}
}

// Triple is one knowledge statement: (subject, predicate, object).
type Triple struct {
	Subject   EntityID
	Predicate PredicateID
	Object    Object
}

// Item returns the triple's data item — the (subject, predicate) pair that
// plays the role of a data-fusion "data item" (§3.1.1).
func (t Triple) Item() DataItem { return DataItem{Subject: t.Subject, Predicate: t.Predicate} }

// String renders the triple as "(subject, predicate, object)".
func (t Triple) String() string {
	return fmt.Sprintf("(%s, %s, %s)", t.Subject, t.Predicate, t.Object)
}

// ParseTriple parses the tab-separated form "subject\tpredicate\tobject"
// with the object in Object.String tagged syntax.
func ParseTriple(s string) (Triple, error) {
	parts := strings.Split(s, "\t")
	if len(parts) != 3 {
		return Triple{}, fmt.Errorf("kb: malformed triple %q: want 3 tab-separated fields, got %d", s, len(parts))
	}
	obj, err := ParseObject(parts[2])
	if err != nil {
		return Triple{}, err
	}
	return Triple{Subject: EntityID(parts[0]), Predicate: PredicateID(parts[1]), Object: obj}, nil
}

// Encode renders the triple in the tab-separated form read by ParseTriple.
func (t Triple) Encode() string {
	return string(t.Subject) + "\t" + string(t.Predicate) + "\t" + t.Object.String()
}

// DataItem is a (subject, predicate) pair: the unit for which fusion decides
// among conflicting values.
type DataItem struct {
	Subject   EntityID
	Predicate PredicateID
}

// String renders the data item as "subject#predicate".
func (d DataItem) String() string { return string(d.Subject) + "#" + string(d.Predicate) }

// fnvHash64 is FNV-1a over multi-field values: each call folds one string
// into the running hash and then a field terminator, so field boundaries
// cannot collide ("ab"+"c" vs "a"+"bc").
func fnvHash64(h uint64, s string) uint64 {
	const prime64 = 1099511628211
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= 0xff
	h *= prime64
	return h
}

const fnvOffset64 = 14695981039346656037

// StringHash is plain FNV-1a over one string (no field terminator) — the
// hash behind the engines' per-item and per-provenance reservoir seeds and
// the reference engines' shuffle partitioning. Its value is part of the
// output contract: changing it moves every L-sampled result.
func StringHash(s string) uint64 {
	const prime64 = 1099511628211
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Hash returns a deterministic field-wise hash of the data item — the key
// shard.Of routes by — without building the String() form.
func (d DataItem) Hash() uint64 {
	h := fnvHash64(fnvOffset64, string(d.Subject))
	return fnvHash64(h, string(d.Predicate))
}

// Hash returns a deterministic field-wise hash of the object. Objects that
// compare equal with == hash equal; -0 is folded onto +0 because the two
// compare equal as float64s.
func (o Object) Hash() uint64 {
	h := fnvHash64(fnvOffset64, o.Str)
	const prime64 = 1099511628211
	h ^= uint64(o.Kind)
	h *= prime64
	num := o.Num
	if num == 0 {
		num = 0 // normalize -0
	}
	bits := math.Float64bits(num)
	for i := 0; i < 64; i += 8 {
		h ^= (bits >> i) & 0xff
		h *= prime64
	}
	return h
}

// Hash returns a deterministic field-wise hash of the triple, equal for equal
// triples. Like DataItem.Hash it avoids building the Encode() string.
func (t Triple) Hash() uint64 {
	h := fnvHash64(fnvOffset64, string(t.Subject))
	h = fnvHash64(h, string(t.Predicate))
	const prime64 = 1099511628211
	h *= prime64
	h ^= t.Object.Hash()
	h *= prime64
	return h
}

// WithObject completes the data item into a triple with the given object.
func (d DataItem) WithObject(o Object) Triple {
	return Triple{Subject: d.Subject, Predicate: d.Predicate, Object: o}
}
