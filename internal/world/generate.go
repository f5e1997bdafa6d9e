package world

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"kfusion/internal/kb"
	"kfusion/internal/randx"
)

// nameKind selects which name generator a type uses for its entities.
type nameKind uint8

const (
	nkPerson nameKind = iota
	nkPlace
	nkOrg
	nkTitle
)

type typeSpec struct {
	domain string
	name   string
	kind   nameKind
}

// typeCatalog mirrors the paper's observation that types span "geography,
// business, book, music, sports, people, biology, etc." and that the top
// types (location, organization, business) dominate entity counts:
// buildEntities applies its Zipf skew over the catalog order.
var typeCatalog = []typeSpec{
	{"organization", "organization", nkOrg},
	{"business", "company", nkOrg},
	{"people", "person", nkPerson},
	{"film", "film", nkTitle},
	{"film", "actor", nkPerson},
	{"film", "director", nkPerson},
	{"book", "book", nkTitle},
	{"book", "author", nkPerson},
	{"music", "album", nkTitle},
	{"music", "artist", nkPerson},
	{"sports", "team", nkOrg},
	{"sports", "athlete", nkPerson},
	{"tv", "program", nkTitle},
	{"education", "university", nkOrg},
	{"geography", "mountain", nkPlace},
	{"geography", "river", nkPlace},
	{"biology", "species", nkPlace},
	{"government", "politician", nkPerson},
	{"medicine", "hospital", nkOrg},
	{"computer", "software", nkTitle},
	{"automotive", "model", nkTitle},
	{"food", "dish", nkTitle},
	{"astronomy", "star", nkPlace},
	{"theater", "play", nkTitle},
}

// LocationType is the type carried by every entity in the location hierarchy.
const LocationType kb.TypeID = "/location/location"

// Attribute-name pools per value domain. Predicate linkage errors swap a
// predicate for a "sibling" drawn from the same pool (book author vs book
// editor in the paper's example).
var (
	entityAttrs = []string{
		"created_by", "member_of", "parent", "partner", "affiliated_with",
		"influenced_by", "spouse", "children", "employer", "founder",
		"notable_work", "award", "editor", "author_of", "rival",
	}
	locationAttrs = []string{
		"birth_place", "headquarters", "location", "place_of_death",
		"origin", "based_in", "venue", "hometown", "filmed_at",
	}
	stringAttrs = []string{
		"birth_date", "release_date", "founded_date", "genre", "language",
		"currency", "description", "motto", "nickname", "slogan", "subtitle",
		"death_date",
	}
	numberAttrs = []string{
		"height_meters", "population", "founded_year", "release_year",
		"employees", "revenue_musd", "area_km2", "elevation_m", "runtime_min",
		"page_count", "track_count", "capacity",
	}
)

// World is the generated ground truth plus the lookup structure the Web,
// extractor and evaluation layers need.
type World struct {
	Cfg  Config
	Ont  *kb.Ontology
	Hier *kb.Hierarchy

	// Truth holds every canonical true triple. For hierarchical predicates
	// the canonical value is the most specific one; IsTrue additionally
	// accepts its ancestors.
	Truth *kb.Store

	// Difficulty maps each predicate to an extraction difficulty in [0,1]
	// that scales extractor error rates, producing the wide per-predicate
	// accuracy spread of Figure 4.
	Difficulty map[kb.PredicateID]float64

	// Cities are the leaf locations (used to seed hierarchical values).
	Cities []kb.EntityID

	popularity  map[kb.EntityID]float64
	popSampler  *randx.Categorical
	popOrder    []kb.EntityID
	confusables map[kb.EntityID][]kb.EntityID
	siblings    map[kb.PredicateID][]kb.PredicateID
	valuePool   map[kb.PredicateID][]kb.Object
}

// Generate builds a world from cfg. It panics only on internal invariant
// violations; configuration problems are reported as errors.
func Generate(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &World{
		Cfg:         cfg,
		Ont:         kb.NewOntology(),
		Hier:        kb.NewHierarchy(),
		Truth:       kb.NewStore(),
		Difficulty:  make(map[kb.PredicateID]float64),
		popularity:  make(map[kb.EntityID]float64),
		confusables: make(map[kb.EntityID][]kb.EntityID),
		siblings:    make(map[kb.PredicateID][]kb.PredicateID),
		valuePool:   make(map[kb.PredicateID][]kb.Object),
	}
	root := randx.New(cfg.Seed)
	w.buildTypes()
	w.buildLocations(root.Split("locations"))
	w.buildEntities(root.Split("entities"))
	w.buildPredicates(root.Split("predicates"))
	w.buildConfusables(root.Split("confusables"))
	w.buildFacts(root.Split("facts"))
	w.buildPopularity(root.Split("popularity"))
	return w, nil
}

// MustGenerate is Generate for callers with static configs (tests, benches).
func MustGenerate(cfg Config) *World {
	w, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

func (w *World) buildTypes() {
	w.Ont.AddType(kb.Type{ID: LocationType, Domain: "location", Name: "location"})
	for _, ts := range typeCatalog {
		id := kb.TypeID("/" + ts.domain + "/" + ts.name)
		w.Ont.AddType(kb.Type{ID: id, Domain: ts.domain, Name: ts.name})
	}
}

// buildLocations creates the containment hierarchy continent → country →
// state → city. Some cities deliberately share names ("Paris, Texas") to
// exercise entity-linkage ambiguity.
func (w *World) buildLocations(src *randx.Source) {
	gen := nameGen{src: src.Split("names")}
	var mint func(level string, n int, parent kb.EntityID, depth int)
	counter := 0
	var cityNames []string
	mint = func(level string, n int, parent kb.EntityID, depth int) {
		for i := 0; i < n; i++ {
			counter++
			id := kb.EntityID("/m/loc" + strconv.FormatInt(int64(counter), 36))
			name := gen.placeName()
			if level == "city" && len(cityNames) > 0 && src.Bool(w.Cfg.DuplicateCityRate) {
				name = cityNames[src.Intn(len(cityNames))]
			}
			w.Ont.AddEntity(kb.Entity{ID: id, Name: name, Types: []kb.TypeID{LocationType}})
			if parent != "" {
				w.Hier.SetParent(id, parent)
			}
			switch level {
			case "continent":
				mint("country", w.Cfg.CountriesPerCont, id, depth+1)
			case "country":
				mint("state", w.Cfg.StatesPerCountry, id, depth+1)
			case "state":
				mint("city", w.Cfg.CitiesPerState, id, depth+1)
			case "city":
				cityNames = append(cityNames, name)
				w.Cities = append(w.Cities, id)
			}
		}
	}
	mint("continent", w.Cfg.Continents, "", 0)
}

// buildEntities distributes Config.NumEntities over the non-location types
// with Zipf skew, reproducing Table 1's heavy head (a few types hold most
// entities) and long tail.
func (w *World) buildEntities(src *randx.Source) {
	gen := nameGen{src: src.Split("names")}
	nTypes := len(typeCatalog)
	zipf := src.NewZipf(w.Cfg.EntityZipfExponent, nTypes)
	counts := make([]int, nTypes)
	for i := 0; i < w.Cfg.NumEntities; i++ {
		counts[zipf.Next()]++
	}
	counter := 0
	for ti, ts := range typeCatalog {
		typeID := kb.TypeID("/" + ts.domain + "/" + ts.name)
		for i := 0; i < counts[ti]; i++ {
			counter++
			id := kb.EntityID("/m/0" + strconv.FormatInt(int64(counter), 36))
			var name string
			switch ts.kind {
			case nkPerson:
				name = gen.personName()
			case nkPlace:
				name = gen.placeName()
			case nkOrg:
				name = gen.orgName()
			default:
				name = gen.titleName()
			}
			types := []kb.TypeID{typeID}
			// A slice of people are also actors/authors/etc.; give ~10% of
			// entities a second type, mirroring "one or several types".
			if src.Bool(0.1) {
				other := typeCatalog[src.Intn(nTypes)]
				otherID := kb.TypeID("/" + other.domain + "/" + other.name)
				if otherID != typeID && other.kind == ts.kind {
					types = append(types, otherID)
				}
			}
			w.Ont.AddEntity(kb.Entity{ID: id, Name: name, Types: types})
		}
	}
}

// buildPredicates mints the per-type schema with the configured functional
// fraction and assigns every predicate an extraction difficulty.
func (w *World) buildPredicates(src *randx.Source) {
	domainPick := randx.NewCategorical([]float64{0.25, 0.2, 0.3, 0.25}) // entity, location-entity, string, number
	for _, tid := range w.Ont.Types() {
		tsrc := src.Split(string(tid))
		n := w.Cfg.PredicatesPerType[0]
		if spread := w.Cfg.PredicatesPerType[1] - w.Cfg.PredicatesPerType[0]; spread > 0 {
			n += tsrc.Intn(spread + 1)
		}
		used := map[string]bool{}
		for i := 0; i < n; i++ {
			var (
				attr   string
				domain kb.ValueDomain
				objTyp kb.TypeID
				hier   bool
			)
			switch domainPick.Sample(tsrc) {
			case 0:
				attr = freshAttr(tsrc, entityAttrs, used)
				domain = kb.DomainEntity
				objTyp = w.randomObjectType(tsrc)
			case 1:
				attr = freshAttr(tsrc, locationAttrs, used)
				domain = kb.DomainEntity
				objTyp = LocationType
				hier = true
			case 2:
				attr = freshAttr(tsrc, stringAttrs, used)
				domain = kb.DomainString
			default:
				attr = freshAttr(tsrc, numberAttrs, used)
				domain = kb.DomainNumber
			}
			functional := tsrc.Bool(w.Cfg.FunctionalFraction)
			card := 1.0
			if !functional {
				// Geometric-ish with mean ≈ 1.8, capped: Figure 20 shows
				// most data items have only 1-2 truths.
				k := 1
				for k < w.Cfg.MaxCardinality && tsrc.Bool(0.42) {
					k++
				}
				card = float64(k)
				if card == 1 {
					card = 1.3 // non-functional predicates still admit >1 sometimes
				}
			}
			p := kb.Predicate{
				ID:           kb.PredicateID(string(tid) + "/" + attr),
				SubjectType:  tid,
				Domain:       domain,
				ObjectType:   objTyp,
				Functional:   functional,
				Cardinality:  card,
				Hierarchical: hier,
			}
			w.Ont.AddPredicate(p)
			// Difficulty skewed high: Figure 4 reports 44% of predicates
			// with accuracy below 0.3 and only 13% above 0.7.
			d := tsrc.Float64()
			w.Difficulty[p.ID] = d * d * 0.9
		}
	}
	// Sibling tables for predicate-linkage errors: same subject type, same
	// value domain.
	for _, tid := range w.Ont.Types() {
		preds := w.Ont.PredicatesOfType(tid)
		for _, p := range preds {
			for _, q := range preds {
				if p.ID != q.ID && p.Domain == q.Domain && p.Hierarchical == q.Hierarchical {
					w.siblings[p.ID] = append(w.siblings[p.ID], q.ID)
				}
			}
		}
	}
}

func freshAttr(src *randx.Source, pool []string, used map[string]bool) string {
	for try := 0; try < 4; try++ {
		a := pool[src.Intn(len(pool))]
		if !used[a] {
			used[a] = true
			return a
		}
	}
	for i := 2; ; i++ {
		a := pool[src.Intn(len(pool))] + "_" + strconv.Itoa(i)
		if !used[a] {
			used[a] = true
			return a
		}
	}
}

func (w *World) randomObjectType(src *randx.Source) kb.TypeID {
	ts := typeCatalog[src.Intn(len(typeCatalog))]
	return kb.TypeID("/" + ts.domain + "/" + ts.name)
}

// buildConfusables mints near-duplicate-name twins for a fraction of
// entities and registers same-name locations as mutually confusable.
func (w *World) buildConfusables(src *randx.Source) {
	gen := nameGen{src: src.Split("names")}
	ids := append([]kb.EntityID(nil), w.Ont.Entities()...)
	counter := 0
	for _, id := range ids {
		if !src.Bool(w.Cfg.ConfusableFraction) {
			continue
		}
		e := w.Ont.Entity(id)
		if len(e.Types) == 0 {
			continue
		}
		counter++
		twinID := kb.EntityID("/m/tw" + strconv.FormatInt(int64(counter), 36))
		var twinName string
		if strings.HasPrefix(string(e.Types[0]), "/people") || strings.Contains(e.Name, " ") && !strings.HasPrefix(string(e.Types[0]), "/location") {
			twinName = gen.personVariant(e.Name)
		} else {
			twinName = gen.titleVariant(e.Name)
		}
		w.Ont.AddEntity(kb.Entity{ID: twinID, Name: twinName, Types: e.Types})
		w.confusables[id] = append(w.confusables[id], twinID)
		w.confusables[twinID] = append(w.confusables[twinID], id)
	}
	// Locations sharing a name are confusable with each other.
	byName := map[string][]kb.EntityID{}
	for _, id := range w.Ont.EntitiesOfType(LocationType) {
		byName[w.Ont.Entity(id).Name] = append(byName[w.Ont.Entity(id).Name], id)
	}
	for _, group := range byName {
		if len(group) < 2 {
			continue
		}
		for _, a := range group {
			for _, b := range group {
				if a != b {
					w.confusables[a] = append(w.confusables[a], b)
				}
			}
		}
	}
}

// buildFacts generates the true triples.
func (w *World) buildFacts(src *randx.Source) {
	gen := nameGen{src: src.Split("values")}
	perTypeSamplers := map[kb.TypeID]*randx.Zipf{}
	entsOf := func(t kb.TypeID) []kb.EntityID { return w.Ont.EntitiesOfType(t) }
	// The ontology is complete here, so each type's predicate list is built
	// once, not per (entity, type).
	predsOf := map[kb.TypeID][]*kb.Predicate{}

	for _, eid := range w.Ont.Entities() {
		esrc := src.Split(string(eid))
		ent := w.Ont.Entity(eid)
		for _, tid := range ent.Types {
			preds, ok := predsOf[tid]
			if !ok {
				preds = w.Ont.PredicatesOfType(tid)
				predsOf[tid] = preds
			}
			for _, p := range preds {
				// Coverage jitters per (entity, predicate); extraction
				// difficulty affects the extractors, not the truth itself.
				cov := w.Cfg.FactCoverage * (0.6 + 0.8*esrc.Float64())
				if cov > 1 {
					cov = 1
				}
				if !esrc.Bool(cov) {
					continue
				}
				nValues := 1
				if !p.Functional {
					nValues = 1
					for float64(nValues) < p.Cardinality+2 && nValues < w.Cfg.MaxCardinality && esrc.Bool(1-1/p.Cardinality) {
						nValues++
					}
				}
				seen := map[kb.Object]bool{}
				for v := 0; v < nValues; v++ {
					obj := w.mintValue(esrc, gen, p, perTypeSamplers, entsOf)
					if obj.IsZero() || seen[obj] {
						continue
					}
					seen[obj] = true
					t := kb.Triple{Subject: eid, Predicate: p.ID, Object: obj}
					if w.Truth.Add(t) {
						w.valuePool[p.ID] = append(w.valuePool[p.ID], obj)
					}
				}
			}
		}
	}
}

// mintValue draws one plausible true value for predicate p.
func (w *World) mintValue(src *randx.Source, gen nameGen, p *kb.Predicate, samplers map[kb.TypeID]*randx.Zipf, entsOf func(kb.TypeID) []kb.EntityID) kb.Object {
	switch p.Domain {
	case kb.DomainEntity:
		if p.Hierarchical {
			return kb.EntityObject(w.mintLocation(src))
		}
		pool := entsOf(p.ObjectType)
		if len(pool) == 0 {
			pool = entsOf(LocationType)
		}
		z, ok := samplers[p.ObjectType]
		if !ok {
			z = src.NewZipf(1.2, len(pool))
			samplers[p.ObjectType] = z
		}
		idx := z.Next()
		if idx >= len(pool) {
			idx = len(pool) - 1
		}
		return kb.EntityObject(pool[idx])
	case kb.DomainNumber:
		return kb.NumberObject(mintNumber(src, p.ID))
	default:
		return kb.StringObject(gen.stringValue(attrOf(p.ID)))
	}
}

// mintLocation picks a hierarchical value: usually a city, sometimes a state
// or country directly — so "the world" itself sometimes only knows a general
// location, as happens in Freebase.
func (w *World) mintLocation(src *randx.Source) kb.EntityID {
	city := w.Cities[src.Intn(len(w.Cities))]
	switch {
	case src.Bool(0.72):
		return city
	case src.Bool(0.6):
		if p := w.Hier.Parent(city); p != "" {
			return p
		}
		return city
	default:
		if p := w.Hier.Parent(city); p != "" {
			if pp := w.Hier.Parent(p); pp != "" {
				return pp
			}
			return p
		}
		return city
	}
}

func attrOf(p kb.PredicateID) string {
	s := string(p)
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		return s[i+1:]
	}
	return s
}

func mintNumber(src *randx.Source, p kb.PredicateID) float64 {
	attr := attrOf(p)
	switch {
	case strings.Contains(attr, "year"):
		return float64(1900 + src.Intn(125))
	case strings.Contains(attr, "population"), strings.Contains(attr, "employees"), strings.Contains(attr, "capacity"):
		return float64(int(src.LogNormal01(9, 2)))
	case strings.Contains(attr, "height"), strings.Contains(attr, "elevation"):
		return float64(1 + src.Intn(8000))
	default:
		return float64(1 + src.Intn(1000))
	}
}

// buildPopularity assigns every entity a Zipf popularity weight; popular
// entities are mentioned on more pages and covered better by Freebase
// (Table 1: 5 entities account for >1M triples while 56% have ≤10).
func (w *World) buildPopularity(src *randx.Source) {
	ids := append([]kb.EntityID(nil), w.Ont.Entities()...)
	// Shuffle so popularity is independent of generation order, then assign
	// rank-based weights.
	src.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	weights := make([]float64, len(ids))
	for rank, id := range ids {
		wgt := 1.0 / math.Pow(float64(rank+1), 1.05)
		w.popularity[id] = wgt
		weights[rank] = wgt
	}
	w.popOrder = ids
	w.popSampler = randx.NewCategorical(weights)
}

// SampleEntity draws an entity with probability proportional to popularity.
func (w *World) SampleEntity(src *randx.Source) kb.EntityID {
	return w.popOrder[w.popSampler.Sample(src)]
}

// Popularity returns the entity's popularity weight (0 for unknown IDs).
func (w *World) Popularity(e kb.EntityID) float64 { return w.popularity[e] }

// PopularityRank returns entities ordered from most to least popular.
func (w *World) PopularityRank() []kb.EntityID { return w.popOrder }

// IsTrue reports whether a triple is consistent with the ground truth. Exact
// canonical triples are true; for hierarchical predicates, ancestors of a
// canonical value are also true ("born in California" when the truth is "born
// in San Francisco", §5.4).
func (w *World) IsTrue(t kb.Triple) bool {
	if w.Truth.Has(t) {
		return true
	}
	p := w.Ont.Predicate(t.Predicate)
	if p == nil || !p.Hierarchical {
		return false
	}
	obj, ok := t.Object.Entity()
	if !ok {
		return false
	}
	for _, truth := range w.Truth.Objects(t.Item()) {
		if base, ok := truth.Entity(); ok && w.Hier.IsAncestor(obj, base) {
			return true
		}
	}
	return false
}

// TrueObjects returns the canonical true objects for a data item.
func (w *World) TrueObjects(d kb.DataItem) []kb.Object { return w.Truth.Objects(d) }

// Confusable returns a random entity confusable with e, if any exists.
func (w *World) Confusable(src *randx.Source, e kb.EntityID) (kb.EntityID, bool) {
	c := w.confusables[e]
	if len(c) == 0 {
		return "", false
	}
	return c[src.Intn(len(c))], true
}

// SiblingPredicate returns a random predicate confusable with p (same
// subject type and value domain), if any exists.
func (w *World) SiblingPredicate(src *randx.Source, p kb.PredicateID) (kb.PredicateID, bool) {
	s := w.siblings[p]
	if len(s) == 0 {
		return "", false
	}
	return s[src.Intn(len(s))], true
}

// WrongValue draws a plausible-but-false value for predicate p, avoiding the
// objects in avoid. Drawing from the predicate's observed value pool makes
// popular values popular among errors too, which is the regime POPACCU's
// popularity-aware false-value model targets.
func (w *World) WrongValue(src *randx.Source, p kb.PredicateID, avoid map[kb.Object]bool) kb.Object {
	pool := w.valuePool[p]
	for try := 0; try < 8 && len(pool) > 0; try++ {
		v := pool[src.Intn(len(pool))]
		if !avoid[v] {
			return v
		}
	}
	// Fall back to a fresh fabricated value.
	pred := w.Ont.Predicate(p)
	if pred == nil {
		return kb.StringObject("unknown-" + strconv.FormatInt(src.Int63()%100000, 10))
	}
	switch pred.Domain {
	case kb.DomainNumber:
		return kb.NumberObject(mintNumber(src, p))
	case kb.DomainEntity:
		if pred.Hierarchical {
			return kb.EntityObject(w.mintLocation(src))
		}
		pool := w.Ont.EntitiesOfType(pred.ObjectType)
		if len(pool) == 0 {
			return kb.StringObject("unknown-" + strconv.FormatInt(src.Int63()%100000, 10))
		}
		return kb.EntityObject(pool[src.Intn(len(pool))])
	default:
		g := nameGen{src: src}
		return kb.StringObject(g.stringValue(attrOf(p)))
	}
}

// Stats summarizes the world for documentation and the Table 1 benchmark.
func (w *World) Stats() string {
	var b strings.Builder
	fmt.Fprintf(&b, "types=%d predicates=%d entities=%d facts=%d items=%d",
		w.Ont.NumTypes(), w.Ont.NumPredicates(), w.Ont.NumEntities(), w.Truth.Len(), w.Truth.NumItems())
	return b.String()
}
