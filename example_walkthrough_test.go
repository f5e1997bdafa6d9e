package kfusion_test

// Longer walkthroughs than example_test.go's one-call examples: the paper's
// running example, the substrate APIs on a film-heavy world, the latent truth
// model and the full synthetic pipeline. `go test` runs each and checks
// its printed output.

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"kfusion"
	"kfusion/internal/kfio"
	"kfusion/internal/multitruth"
)

// Example_quickstart fuses a hand-built set of conflicting claims about Tom
// Cruise — the paper's running example — and prints calibrated
// probabilities.
func Example_quickstart() {
	// Four "provenances" (extractor × page pairs) make claims about two
	// data items. Three agree on the birth date; a low-quality extraction
	// disagrees. The birth place is contested 2-2, but the dissenting
	// provenances are wrong elsewhere, so fusion learns to distrust them.
	claim := func(subj, pred, obj, prov string) kfusion.Claim {
		return kfusion.Claim{
			Triple: kfusion.Triple{
				Subject:   kfusion.EntityID(subj),
				Predicate: kfusion.PredicateID(pred),
				Object:    kfusion.StringObject(obj),
			},
			Prov: prov,
		}
	}

	claims := []kfusion.Claim{
		// Birth date: 3 vs 1.
		claim("/m/tom_cruise", "/people/person/birth_date", "7/3/1962", "TXT1|wiki.example.com/tom"),
		claim("/m/tom_cruise", "/people/person/birth_date", "7/3/1962", "DOM1|bio.example.com/cruise"),
		claim("/m/tom_cruise", "/people/person/birth_date", "7/3/1962", "ANO|fanpage.example.com/tc"),
		claim("/m/tom_cruise", "/people/person/birth_date", "3/7/1962", "DOM2|scrape.example.com/p9"),

		// Birth place: 2 vs 2, but the "Les Miserables"-style provenances
		// also claim known-wrong values on other items below.
		claim("/m/tom_cruise", "/people/person/birth_place", "Syracuse NY", "TXT1|wiki.example.com/tom"),
		claim("/m/tom_cruise", "/people/person/birth_place", "Syracuse NY", "DOM1|bio.example.com/cruise"),
		claim("/m/tom_cruise", "/people/person/birth_place", "New York City", "DOM2|scrape.example.com/p9"),
		claim("/m/tom_cruise", "/people/person/birth_place", "New York City", "DOM2|scrape.example.com/p12"),

		// Anchor items: the reliable provenances agree with each other and
		// with the crowd; DOM2's pages contradict everyone.
		claim("/m/top_gun", "/film/film/release_year", "1986", "TXT1|wiki.example.com/tom"),
		claim("/m/top_gun", "/film/film/release_year", "1986", "DOM1|bio.example.com/cruise"),
		claim("/m/top_gun", "/film/film/release_year", "1986", "ANO|fanpage.example.com/tc"),
		claim("/m/top_gun", "/film/film/release_year", "1996", "DOM2|scrape.example.com/p9"),
		claim("/m/top_gun", "/film/film/release_year", "1996", "DOM2|scrape.example.com/p12"),
	}

	res, err := kfusion.Fuse(claims, kfusion.POPACCU())
	if err != nil {
		panic(err)
	}

	fmt.Println("fused triples (POPACCU):")
	triples := append([]kfusion.FusedTriple(nil), res.Triples...)
	sort.Slice(triples, func(i, j int) bool {
		if triples[i].Triple.Subject != triples[j].Triple.Subject {
			return triples[i].Triple.Subject < triples[j].Triple.Subject
		}
		return triples[i].Probability > triples[j].Probability
	})
	for _, f := range triples {
		fmt.Printf("  p=%.3f  %-60s (%d provenances)\n", f.Probability, f.Triple, f.Provenances)
	}

	fmt.Println("\nlearned provenance accuracies:")
	var provs []string
	for p := range res.ProvAccuracy {
		provs = append(provs, p)
	}
	sort.Strings(provs)
	for _, p := range provs {
		fmt.Printf("  %.3f  %s\n", res.ProvAccuracy[p], p)
	}
	// Output:
	// fused triples (POPACCU):
	//   p=1.000  (/m/tom_cruise, /people/person/birth_date, s:7/3/1962)       (3 provenances)
	//   p=1.000  (/m/tom_cruise, /people/person/birth_place, s:Syracuse NY)   (2 provenances)
	//   p=0.000  (/m/tom_cruise, /people/person/birth_date, s:3/7/1962)       (1 provenances)
	//   p=0.000  (/m/tom_cruise, /people/person/birth_place, s:New York City) (2 provenances)
	//   p=1.000  (/m/top_gun, /film/film/release_year, s:1986)                (3 provenances)
	//   p=0.000  (/m/top_gun, /film/film/release_year, s:1996)                (2 provenances)
	//
	// learned provenance accuracies:
	//   1.000  ANO|fanpage.example.com/tc
	//   1.000  DOM1|bio.example.com/cruise
	//   0.000  DOM2|scrape.example.com/p12
	//   0.000  DOM2|scrape.example.com/p9
	//   1.000  TXT1|wiki.example.com/tom
}

// Example_movieFusion walks through the substrate APIs: it builds a small
// film-heavy world, inspects the synthetic Web pages the paper's §3.1.2
// describes (TXT sentences, DOM infoboxes, tables, schema.org annotations),
// runs the extractor fleet and fuses its output.
func Example_movieFusion() {
	// A compact world: fewer entities, more facts per entity.
	wcfg := kfusion.DefaultWorldConfig(7)
	wcfg.NumEntities = 300
	w, err := kfusion.GenerateWorld(wcfg)
	if err != nil {
		panic(err)
	}

	ccfg := kfusion.DefaultCorpusConfig(8)
	ccfg.NumSites = 60
	corpus, err := kfusion.GenerateCorpus(w, ccfg)
	if err != nil {
		panic(err)
	}

	// Peek at the raw content forms on the first film-topic page.
	for _, page := range corpus.Pages {
		ent := w.Ont.Entity(page.Topic)
		if ent == nil || len(ent.Types) == 0 || ent.Types[0] != "/film/film" {
			continue
		}
		fmt.Printf("page %s about %q:\n", page.URL, ent.Name)
		for _, b := range page.Blocks {
			switch {
			case len(b.Sentences) > 0:
				fmt.Printf("  TXT: %q\n", b.Sentences[0].Text)
			case b.Root != nil:
				fmt.Printf("  DOM: infobox with %d rows\n", len(b.Root.Children))
			case b.Table != nil:
				fmt.Printf("  TBL: %d rows x %d attrs (%v)\n", len(b.Table.Rows), len(b.Table.Attrs), b.Table.Attrs)
			case len(b.Annotations) > 0:
				fmt.Printf("  ANO: itemprop=%q value=%q\n", b.Annotations[0].ItemProp, b.Annotations[0].Value)
			}
		}
		break
	}

	// Run the full 12-extractor fleet, then fuse.
	suite := kfusion.NewExtractorSuite(w, 9)
	xs := suite.Run(w, corpus)
	fmt.Printf("\nextracted %d (triple, provenance) pairs\n", len(xs))

	snap := kfusion.BuildFreebase(w)
	gold := kfusion.NewGoldStandard(snap)

	claims := kfusion.ClaimsFromExtractions(xs, kfusion.GranExtractorSitePredPattern)
	res, err := kfusion.Fuse(claims, kfusion.POPACCUPlus(gold.Labeler()))
	if err != nil {
		panic(err)
	}

	// Show the most confident new knowledge about films that Freebase does
	// not already have — the paper's motivation: 83% of extracted triples
	// are not in Freebase.
	fmt.Println("\nmost confident new film facts (not in the trusted KB):")
	shown := 0
	for _, f := range res.Triples {
		if !f.Predicted || f.Probability < 0.9 || snap.Has(f.Triple) {
			continue
		}
		ent := w.Ont.Entity(f.Triple.Subject)
		if ent == nil || len(ent.Types) == 0 || ent.Types[0] != "/film/film" {
			continue
		}
		verdict := "correct"
		if !w.IsTrue(f.Triple) {
			verdict = "WRONG (extraction artifact)"
		}
		fmt.Printf("  p=%.2f  %-55s -> %s\n", f.Probability, f.Triple, verdict)
		shown++
		if shown >= 10 {
			break
		}
	}
	rep := kfusion.Evaluate("POPACCU+", res, gold)
	fmt.Printf("\ncalibration: WDev=%.4f AUC-PR=%.4f over %d labeled triples\n", rep.WDev, rep.AUCPR, rep.N)
	// Output:
	// page http://news027.example.com/p1 about "Stone Empire":
	//   TXT: "Stone Empire's nickname is Broken hill."
	//
	// extracted 2249 (triple, provenance) pairs
	//
	// most confident new film facts (not in the trusted KB):
	//
	// calibration: WDev=0.0053 AUC-PR=0.9674 over 208 labeled triples
}

// Example_multiTruth addresses the paper's dominant false-negative class,
// the single-truth assumption (65% of FNs, Figure 17): a person has several
// children, an actor several films, but VOTE/ACCU/POPACCU normalize each
// data item's probabilities to sum to 1. It contrasts POPACCU with the
// latent truth model extension (§5.3) on a non-functional predicate.
func Example_multiTruth() {
	// A hand-built non-functional item. Three reliable provenances
	// report child Alice, three others child Bob — both are true.
	claim := func(subj, obj, prov string) kfusion.Claim {
		return kfusion.Claim{
			Triple: kfusion.Triple{
				Subject:   kfusion.EntityID(subj),
				Predicate: "/people/person/children",
				Object:    kfusion.StringObject(obj),
			},
			Prov: prov,
		}
	}
	var claims []kfusion.Claim
	for _, p := range []string{"wiki/p1", "bio/p2", "news/p3"} {
		claims = append(claims, claim("/m/parent", "Alice", p))
	}
	for _, p := range []string{"wiki/p4", "bio/p5", "news/p6"} {
		claims = append(claims, claim("/m/parent", "Bob", p))
	}
	// Anchors that keep all six provenances credible.
	for i, p := range []string{"wiki/p1", "bio/p2", "news/p3", "wiki/p4", "bio/p5", "news/p6"} {
		anchor := kfusion.Claim{
			Triple: kfusion.Triple{
				Subject:   kfusion.EntityID(fmt.Sprintf("/m/anchor%d", i)),
				Predicate: "/x/p",
				Object:    kfusion.StringObject("v"),
			},
			Prov: p,
		}
		claims = append(claims, anchor)
	}

	single, err := kfusion.Fuse(claims, kfusion.POPACCU())
	if err != nil {
		panic(err)
	}
	ltm := multitruth.MustFuse(claims, multitruth.DefaultConfig())

	fmt.Println("who are the parent's children?  (both Alice and Bob are true)")
	fmt.Printf("%-28s %10s %10s\n", "", "POPACCU", "LTM")
	show := func(obj string) {
		var sp, lp float64
		for _, f := range single.Triples {
			if f.Triple.Subject == "/m/parent" && f.Triple.Object.Str == obj {
				sp = f.Probability
			}
		}
		for _, f := range ltm.Triples {
			if f.Triple.Subject == "/m/parent" && f.Triple.Object.Str == obj {
				lp = f.Probability
			}
		}
		fmt.Printf("  children = %-15s %10.3f %10.3f\n", obj, sp, lp)
	}
	show("Alice")
	show("Bob")
	fmt.Println("  → the single-truth model splits the mass; the latent truth model believes both")
	// Output:
	// who are the parent's children?  (both Alice and Bob are true)
	//                                 POPACCU        LTM
	//   children = Alice                0.472      0.757
	//   children = Bob                  0.472      0.757
	//   → the single-truth model splits the mass; the latent truth model believes both
}

// Example_webscale runs the full synthetic pipeline: generate a world, crawl
// it into a Web corpus, run the 12 simulated extractors, build the LCWA gold
// standard, fuse with every preset and compare calibration, run the
// mechanical error analysis of Figure 17, and round-trip the fused knowledge
// base through the JSONL file kfuse writes.
func Example_webscale() {
	ds := kfusion.Synthesize(kfusion.ScaleSmall, 42)
	fmt.Println("synthesized:")
	fmt.Printf("  world:       %s\n", ds.World.Stats())
	fmt.Printf("  corpus:      %d pages on %d sites\n", len(ds.Corpus.Pages), ds.Corpus.NumSites())
	fmt.Printf("  extractions: %d by %d extractors\n", len(ds.Extractions), len(ds.Suite.Extractors))
	fmt.Printf("  freebase:    %d triples (incomplete on purpose)\n\n", ds.Snapshot.Store.Len())

	presets := []struct {
		name string
		cfg  kfusion.FuseConfig
	}{
		{"VOTE", kfusion.VOTE()},
		{"ACCU", kfusion.ACCU()},
		{"POPACCU", kfusion.POPACCU()},
		{"POPACCU+unsup", kfusion.POPACCUPlusUnsup()},
		{"POPACCU+", kfusion.POPACCUPlus(ds.Gold.Labeler())},
	}

	fmt.Printf("%-14s %8s %8s %8s %9s\n", "model", "Dev", "WDev", "AUC-PR", "labeled")
	for _, p := range presets {
		res := ds.Fuse(p.name, p.cfg)
		rep := kfusion.Evaluate(p.name, res, ds.Gold)
		fmt.Printf("%-14s %8.4f %8.4f %8.4f %9d\n", p.name, rep.Dev, rep.WDev, rep.AUCPR, rep.N)
	}

	// Calibration detail for the refined system.
	plus := ds.Fuse("POPACCU+", kfusion.POPACCUPlus(ds.Gold.Labeler()))
	rep := kfusion.Evaluate("POPACCU+", plus, ds.Gold)
	fmt.Println("\nPOPACCU+ calibration (predicted -> real, n):")
	for _, b := range rep.Curve.Buckets {
		if b.N == 0 {
			continue
		}
		fmt.Printf("  [%.2f,%.2f)  %.3f -> %.3f  (%d)\n", b.Lo, b.Hi, b.MeanPred, b.Real, b.N)
	}

	// Figure 17-style mechanical error analysis.
	ea := kfusion.AnalyzeErrors(ds.World, ds.Snapshot, ds.Gold, plus, ds.Extractions, 0.95, 0.05)
	fmt.Printf("\nerror analysis (high-confidence mistakes):\n%s", ea)

	// The fused knowledge base: write it as kfuse does and stream it back.
	var file bytes.Buffer
	if err := kfio.WriteFused(&file, plus); err != nil {
		panic(err)
	}
	fr := kfio.NewFusedReader(&file)
	subjects := map[kfusion.EntityID]bool{}
	triples, predicted, confident := 0, 0, 0
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			panic(err)
		}
		triples++
		subjects[f.Triple.Subject] = true
		if f.Predicted {
			predicted++
			if f.Probability >= 0.9 {
				confident++
			}
		}
	}
	fmt.Printf("\nfused knowledge base: %d triples, %d subjects, %d with probability\n",
		triples, len(subjects), predicted)
	fmt.Printf("triples trusted at p>=0.9: %d\n", confident)
	// Output:
	// synthesized:
	//   world:       types=25 predicates=157 entities=1250 facts=5633 items=3718
	//   corpus:      679 pages on 250 sites
	//   extractions: 5029 by 12 extractors
	//   freebase:    2590 triples (incomplete on purpose)
	//
	// model               Dev     WDev   AUC-PR   labeled
	// VOTE             0.0531   0.0379   0.3989      1072
	// ACCU             0.1087   0.0552   0.4672      1072
	// POPACCU          0.1272   0.0539   0.4271      1072
	// POPACCU+unsup    0.1612   0.0946   0.5957       300
	// POPACCU+         0.0528   0.0054   0.9840       618
	//
	// POPACCU+ calibration (predicted -> real, n):
	//   [0.00,0.05)  0.005 -> 0.003  (385)
	//   [0.05,0.10)  0.070 -> 0.143  (7)
	//   [0.10,0.15)  0.117 -> 0.200  (5)
	//   [0.15,0.20)  0.167 -> 0.750  (4)
	//   [0.20,0.25)  0.200 -> 0.000  (2)
	//   [0.25,0.30)  0.274 -> 0.250  (4)
	//   [0.30,0.35)  0.322 -> 0.571  (14)
	//   [0.40,0.45)  0.404 -> 0.444  (9)
	//   [0.45,0.50)  0.490 -> 0.727  (11)
	//   [0.50,0.55)  0.500 -> 0.500  (8)
	//   [0.60,0.65)  0.606 -> 1.000  (1)
	//   [0.75,0.80)  0.767 -> 0.500  (2)
	//   [0.95,1.00)  0.996 -> 0.981  (154)
	//   [1.00,1.00)  1.000 -> 1.000  (12)
	//
	// error analysis (high-confidence mistakes):
	// False positives (3):
	//   common extraction error        2
	//   wrong value in Freebase        1
	// False negatives (1):
	//   multiple truths                1
	//
	// fused knowledge base: 2786 triples, 337 subjects, 1255 with probability
	// triples trusted at p>=0.9: 448
}
