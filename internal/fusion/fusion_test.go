package fusion

import (
	"math"
	"testing"

	"kfusion/internal/kb"
)

// claim builds a test claim quickly.
func cl(subj, pred, obj, prov string) Claim {
	return Claim{
		Triple: kb.Triple{Subject: kb.EntityID(subj), Predicate: kb.PredicateID(pred), Object: kb.StringObject(obj)},
		Prov:   prov,
		Conf:   -1,
	}
}

func probOf(t *testing.T, res *Result, subj, pred, obj string) float64 {
	t.Helper()
	want := kb.Triple{Subject: kb.EntityID(subj), Predicate: kb.PredicateID(pred), Object: kb.StringObject(obj)}
	for _, f := range res.Triples {
		if f.Triple == want {
			if !f.Predicted {
				t.Fatalf("triple %v has no prediction", want)
			}
			return f.Probability
		}
	}
	t.Fatalf("triple %v not in result", want)
	return 0
}

func TestVoteProbabilities(t *testing.T) {
	claims := []Claim{
		cl("s", "p", "a", "p1"), cl("s", "p", "a", "p2"), cl("s", "p", "a", "p3"),
		cl("s", "p", "b", "p4"),
	}
	res := MustFuse(claims, VoteConfig())
	if got := probOf(t, res, "s", "p", "a"); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("vote p(a) = %v, want 0.75", got)
	}
	if got := probOf(t, res, "s", "p", "b"); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("vote p(b) = %v, want 0.25", got)
	}
	if res.Rounds != 1 {
		t.Errorf("VOTE rounds = %d, want 1", res.Rounds)
	}
}

func TestVoteSingleClaimIsOne(t *testing.T) {
	res := MustFuse([]Claim{cl("s", "p", "a", "p1")}, VoteConfig())
	if got := probOf(t, res, "s", "p", "a"); got != 1 {
		t.Errorf("vote singleton = %v, want 1 (the paper's criticism of VOTE)", got)
	}
}

func TestAccuSingleClaimNearDefault(t *testing.T) {
	// One claim from one provenance with default accuracy 0.8 and N=100:
	// p = 400/(400+99) ≈ 0.80.
	res := MustFuse([]Claim{cl("s", "p", "a", "p1")}, AccuConfig())
	got := probOf(t, res, "s", "p", "a")
	if math.Abs(got-0.8) > 0.02 {
		t.Errorf("ACCU singleton = %v, want ≈0.80", got)
	}
}

func TestPopAccuSingleClaimAtDefault(t *testing.T) {
	// The paper: "that single triple would carry this default accuracy as
	// its probability" — the 0.8 calibration valley.
	res := MustFuse([]Claim{cl("s", "p", "a", "p1")}, PopAccuConfig())
	got := probOf(t, res, "s", "p", "a")
	if math.Abs(got-0.8) > 0.02 {
		t.Errorf("POPACCU singleton = %v, want ≈0.80", got)
	}
}

func TestPopAccuTwoWayConflictNearHalf(t *testing.T) {
	// With default accuracies (round 1), a 1-vs-1 conflict lands near 0.5 —
	// the paper's 0.5 calibration valley.
	cfg := PopAccuConfig()
	cfg.Rounds = 1
	claims := []Claim{cl("s", "p", "a", "p1"), cl("s", "p", "b", "p2")}
	res := MustFuse(claims, cfg)
	pa, pb := probOf(t, res, "s", "p", "a"), probOf(t, res, "s", "p", "b")
	if math.Abs(pa-pb) > 1e-9 {
		t.Errorf("symmetric conflict asymmetric: %v vs %v", pa, pb)
	}
	if pa < 0.4 || pa > 0.55 {
		t.Errorf("two-way conflict p = %v, want ≈0.5 (the 0.5 valley)", pa)
	}
}

func TestPopAccuIsolatedConflictDriftsDown(t *testing.T) {
	// Over multiple EM rounds, two isolated provenances that only ever
	// contradict each other drag each other's accuracy (and the triple
	// probabilities) down — both end below the round-1 value.
	claims := []Claim{cl("s", "p", "a", "p1"), cl("s", "p", "b", "p2")}
	r1cfg := PopAccuConfig()
	r1cfg.Rounds = 1
	r1 := probOf(t, MustFuse(claims, r1cfg), "s", "p", "a")
	r5 := probOf(t, MustFuse(claims, PopAccuConfig()), "s", "p", "a")
	if r5 >= r1 {
		t.Errorf("isolated conflict should drift down: round1=%.3f round5=%.3f", r1, r5)
	}
}

func TestMajorityWinsAllMethods(t *testing.T) {
	claims := []Claim{
		cl("s", "p", "a", "p1"), cl("s", "p", "a", "p2"), cl("s", "p", "a", "p3"),
		cl("s", "p", "a", "p4"), cl("s", "p", "a", "p5"),
		cl("s", "p", "b", "p6"), cl("s", "p", "b", "p7"),
	}
	for _, cfg := range []Config{VoteConfig(), AccuConfig(), PopAccuConfig()} {
		res := MustFuse(claims, cfg)
		pa, pb := probOf(t, res, "s", "p", "a"), probOf(t, res, "s", "p", "b")
		if pa <= pb {
			t.Errorf("%v: majority value not preferred: p(a)=%v p(b)=%v", cfg.Method, pa, pb)
		}
	}
}

func TestProbabilitiesInRangeAndItemSumBounded(t *testing.T) {
	claims := []Claim{
		cl("s", "p", "a", "p1"), cl("s", "p", "b", "p2"), cl("s", "p", "c", "p3"),
		cl("s", "p", "a", "p4"), cl("s2", "p", "x", "p1"), cl("s2", "p", "y", "p4"),
	}
	for _, cfg := range []Config{VoteConfig(), AccuConfig(), PopAccuConfig()} {
		res := MustFuse(claims, cfg)
		sums := map[kb.DataItem]float64{}
		for _, f := range res.Triples {
			if !f.Predicted {
				continue
			}
			if f.Probability < 0 || f.Probability > 1 {
				t.Fatalf("%v: probability out of range: %v", cfg.Method, f.Probability)
			}
			sums[f.Item()] += f.Probability
		}
		for item, s := range sums {
			if s > 1+1e-9 {
				t.Errorf("%v: item %v probabilities sum to %v > 1", cfg.Method, item, s)
			}
		}
	}
}

func TestAccuIterationSharpensGoodSources(t *testing.T) {
	// Provenances g1-g3 always agree (on items i1..i5); provenance bad
	// disagrees everywhere. After iteration the agreeing provenances should
	// earn high accuracy and dominate a 3-vs-1... actually 3-vs-1 is already
	// a majority; the sharper check: on a fresh item where only g1 and bad
	// conflict 1-vs-1, g1 should win after accuracy estimation.
	var claims []Claim
	items := []string{"i1", "i2", "i3", "i4", "i5"}
	for _, it := range items {
		claims = append(claims,
			cl(it, "p", "v", "g1"), cl(it, "p", "v", "g2"), cl(it, "p", "v", "g3"),
			cl(it, "p", "w", "bad"),
		)
	}
	claims = append(claims, cl("fresh", "p", "v", "g1"), cl("fresh", "p", "w", "bad"))
	for _, cfg := range []Config{AccuConfig(), PopAccuConfig()} {
		res := MustFuse(claims, cfg)
		pv, pw := probOf(t, res, "fresh", "p", "v"), probOf(t, res, "fresh", "p", "w")
		if pv <= pw {
			t.Errorf("%v: trusted source did not win the 1-vs-1: p(v)=%.3f p(w)=%.3f", cfg.Method, pv, pw)
		}
		if res.ProvAccuracy["g1"] <= res.ProvAccuracy["bad"] {
			t.Errorf("%v: accuracy(g1)=%.3f <= accuracy(bad)=%.3f", cfg.Method,
				res.ProvAccuracy["g1"], res.ProvAccuracy["bad"])
		}
	}
}

func TestPopAccuRobustToPopularFalseValue(t *testing.T) {
	// A popular false value shared by many weak provenances that are wrong
	// elsewhere; ACCU with uniform false values trusts the crowd more than
	// POPACCU, which discounts popular wrong values.
	var claims []Claim
	// Establish that c1..c5 are inaccurate: they disagree with 6 good
	// provenances on items e1..e4.
	for _, it := range []string{"e1", "e2", "e3", "e4"} {
		for _, g := range []string{"g1", "g2", "g3", "g4", "g5", "g6"} {
			claims = append(claims, cl(it, "p", "true-"+it, g))
		}
		for _, c := range []string{"c1", "c2", "c3", "c4", "c5"} {
			claims = append(claims, cl(it, "p", "copied-wrong", c))
		}
	}
	// Target item: copiers vs two good provenances.
	for _, c := range []string{"c1", "c2", "c3", "c4", "c5"} {
		claims = append(claims, cl("target", "p", "copied-wrong", c))
	}
	claims = append(claims, cl("target", "p", "right", "g1"), cl("target", "p", "right", "g2"))

	pop := MustFuse(claims, PopAccuConfig())
	pRight := probOf(t, pop, "target", "p", "right")
	pWrong := probOf(t, pop, "target", "p", "copied-wrong")
	if pRight <= pWrong {
		t.Errorf("POPACCU: popular false value beat trusted minority: right=%.3f wrong=%.3f", pRight, pWrong)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	claims := []Claim{
		cl("s", "p", "a", "p1"), cl("s", "p", "b", "p2"), cl("s", "p", "a", "p3"),
		cl("t", "p", "c", "p1"), cl("t", "p", "d", "p2"),
	}
	for _, cfg := range []Config{VoteConfig(), AccuConfig(), PopAccuConfig()} {
		a, b := MustFuse(claims, cfg), MustFuse(claims, cfg)
		if len(a.Triples) != len(b.Triples) {
			t.Fatalf("%v: result sizes differ", cfg.Method)
		}
		am, bm := a.ByTriple(), b.ByTriple()
		for tr, fa := range am {
			if fb := bm[tr]; fa != fb {
				t.Fatalf("%v: %v differs: %+v vs %+v", cfg.Method, tr, fa, fb)
			}
		}
	}
}

func TestCoverageFilterDropsSingletons(t *testing.T) {
	cfg := PopAccuConfig()
	cfg.FilterByCoverage = true
	claims := []Claim{
		// Item with repeated support: scored.
		cl("s", "p", "a", "p1"), cl("s", "p", "a", "p2"),
		// Lone item from a lone provenance: cannot evaluate, no prediction.
		cl("lone", "p", "x", "lonely"),
	}
	res := MustFuse(claims, cfg)
	if res.Unpredicted != 1 {
		t.Errorf("Unpredicted = %d, want 1", res.Unpredicted)
	}
	for _, f := range res.Triples {
		if f.Triple.Subject == "lone" && f.Predicted {
			t.Error("coverage-filtered triple still predicted")
		}
		if f.Triple.Subject == "s" && !f.Predicted {
			t.Error("supported triple lost its prediction")
		}
	}
}

func TestAccuracyThresholdFallback(t *testing.T) {
	cfg := PopAccuConfig()
	cfg.AccuracyThreshold = 0.6
	// Gold-initialize one provenance below threshold so its items fall back.
	cfg.GoldLabeler = func(tr kb.Triple) (bool, bool) {
		return false, tr.Subject == "labeled"
	}
	claims := []Claim{
		cl("labeled", "p", "a", "weak"), cl("labeled", "p", "a", "weak2"),
		cl("only", "p", "x", "weak"),
	}
	// weak gets gold accuracy ≈0 (its labeled claim is false) → filtered;
	// item "only" loses all provenances → fallback to mean accuracy.
	res := MustFuse(claims, cfg)
	found := false
	for _, f := range res.Triples {
		if f.Triple.Subject == "only" {
			found = true
			if !f.Predicted {
				t.Error("fallback did not assign a probability")
			}
			if f.Probability > 0.1 {
				t.Errorf("fallback probability %.3f should reflect the weak provenance accuracy", f.Probability)
			}
		}
	}
	if !found {
		t.Fatal("item lost entirely")
	}
}

func TestGoldInitUsesLabels(t *testing.T) {
	cfg := PopAccuConfig()
	cfg.Rounds = 1
	truths := map[string]bool{"a": true, "b": false}
	cfg.GoldLabeler = func(tr kb.Triple) (bool, bool) {
		v, ok := truths[tr.Object.Str]
		return v, ok
	}
	claims := []Claim{
		cl("s1", "p", "a", "good"), cl("s2", "p", "a", "good"),
		cl("s3", "p", "b", "bad"), cl("s4", "p", "b", "bad"),
	}
	res := MustFuse(claims, cfg)
	if res.ProvAccuracy["good"] <= res.ProvAccuracy["bad"] {
		t.Errorf("gold init: accuracy(good)=%.3f <= accuracy(bad)=%.3f",
			res.ProvAccuracy["good"], res.ProvAccuracy["bad"])
	}
}

func TestGoldSampleRateZeroKeepsSomeDefaults(t *testing.T) {
	cfg := PopAccuConfig()
	cfg.GoldLabeler = func(tr kb.Triple) (bool, bool) { return true, true }
	cfg.GoldSampleRate = 0.0001 // nearly no labels survive sampling
	claims := []Claim{cl("s", "p", "a", "p1"), cl("s", "p", "b", "p2")}
	res, err := Fuse(claims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = res // behaviourally: must not crash and must keep defaults
}

func TestSamplingCapStillPredicts(t *testing.T) {
	cfg := PopAccuConfig()
	cfg.SampleL = 8
	cfg.SampleSeed = 7
	var claims []Claim
	for i := 0; i < 200; i++ {
		claims = append(claims, cl("s", "p", "a", "prov"+string(rune('A'+i%26))+string(rune('0'+i/26))))
	}
	claims = append(claims, cl("s", "p", "b", "dissent"))
	res := MustFuse(claims, cfg)
	// The majority triple must still be predicted and dominant.
	var pa float64
	for _, f := range res.Triples {
		if f.Triple.Object.Str == "a" && f.Predicted {
			pa = f.Probability
		}
	}
	if pa < 0.5 {
		t.Errorf("sampled fusion lost the majority value: p(a)=%v", pa)
	}
	// And sampling must be deterministic.
	res2 := MustFuse(claims, cfg)
	if res.ByTriple()[claims[0].Triple] != res2.ByTriple()[claims[0].Triple] {
		t.Error("sampling not deterministic")
	}
}

func TestConvergenceStopsEarly(t *testing.T) {
	cfg := PopAccuConfig()
	cfg.Rounds = 50
	cfg.Epsilon = 1e-6
	claims := []Claim{
		cl("s", "p", "a", "p1"), cl("s", "p", "a", "p2"), cl("s", "p", "b", "p3"),
	}
	res := MustFuse(claims, cfg)
	if res.Rounds >= 50 {
		t.Errorf("no early convergence: rounds = %d", res.Rounds)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := AccuConfig()
	bad.DefaultAccuracy = 1.5
	if _, err := Fuse(nil, bad); err == nil {
		t.Error("accepted DefaultAccuracy=1.5")
	}
	bad = AccuConfig()
	bad.NFalse = 0
	if _, err := Fuse(nil, bad); err == nil {
		t.Error("accepted NFalse=0")
	}
	bad = PopAccuConfig()
	bad.SampleL = 0
	if _, err := Fuse(nil, bad); err == nil {
		t.Error("accepted SampleL=0")
	}
	bad = PopAccuConfig()
	bad.AccuracyThreshold = 1
	if _, err := Fuse(nil, bad); err == nil {
		t.Error("accepted AccuracyThreshold=1")
	}
	// NaN fails every comparison, so each range check must be written to
	// reject it.
	nan := math.NaN()
	for _, f := range []struct {
		name string
		set  func(*Config)
	}{
		{"DefaultAccuracy", func(c *Config) { c.DefaultAccuracy = nan }},
		{"AccuracyThreshold", func(c *Config) { c.AccuracyThreshold = nan }},
		{"GoldSampleRate", func(c *Config) { c.GoldSampleRate = nan }},
	} {
		bad = PopAccuConfig()
		f.set(&bad)
		if _, err := Fuse(nil, bad); err == nil {
			t.Errorf("accepted %s=NaN", f.name)
		}
	}
}

// TestPresetAndGranularityNames pins the one name table the CLIs and the
// daemon share: every documented name resolves to its paper configuration,
// and anything else — popaccu+ included, which needs a Labeler — is an error.
func TestPresetAndGranularityNames(t *testing.T) {
	for name, want := range map[string]Config{
		"vote": VoteConfig(), "accu": AccuConfig(), "popaccu": PopAccuConfig(), "popaccu+unsup": PopAccuPlusUnsupConfig(),
	} {
		got, err := Preset(name)
		if err != nil || got.Method != want.Method || got.Granularity != want.Granularity ||
			got.FilterByCoverage != want.FilterByCoverage || got.Rounds != want.Rounds {
			t.Errorf("Preset(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "popaccu+", "twolayer", "POPACCU"} {
		if _, err := Preset(name); err == nil {
			t.Errorf("Preset(%q) accepted", name)
		}
	}
	for name, want := range map[string]Granularity{
		"url": GranExtractorURL, "site": GranExtractorSite,
		"site-pred": GranExtractorSitePred, "site-pred-pattern": GranExtractorSitePredPattern,
	} {
		if got, err := ParseGranularity(name); err != nil || got != want {
			t.Errorf("ParseGranularity(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "page", "Site"} {
		if _, err := ParseGranularity(name); err == nil {
			t.Errorf("ParseGranularity(%q) accepted", name)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	res := MustFuse(nil, PopAccuConfig())
	if len(res.Triples) != 0 {
		t.Errorf("empty input produced %d triples", len(res.Triples))
	}
}

func TestSupportCounts(t *testing.T) {
	claims := []Claim{
		{Triple: kb.Triple{Subject: "s", Predicate: "p", Object: kb.StringObject("a")}, Prov: "x1", Extractor: "E1"},
		{Triple: kb.Triple{Subject: "s", Predicate: "p", Object: kb.StringObject("a")}, Prov: "x2", Extractor: "E2"},
		{Triple: kb.Triple{Subject: "s", Predicate: "p", Object: kb.StringObject("a")}, Prov: "x3", Extractor: "E1"},
		{Triple: kb.Triple{Subject: "s", Predicate: "p", Object: kb.StringObject("b")}, Prov: "x4", Extractor: "E3"},
	}
	res := MustFuse(claims, VoteConfig())
	for _, f := range res.Triples {
		switch f.Triple.Object.Str {
		case "a":
			if f.Provenances != 3 || f.ItemProvenances != 4 || f.Extractors != 2 {
				t.Errorf("support counts for a: %+v", f)
			}
		case "b":
			if f.Provenances != 1 || f.ItemProvenances != 4 || f.Extractors != 1 {
				t.Errorf("support counts for b: %+v", f)
			}
		}
	}
}

func TestGranularityKeys(t *testing.T) {
	x := testExtraction()
	cases := []struct {
		g    Granularity
		want string
	}{
		{GranExtractorURL, "TXT1|http://wiki001.example.com/p3"},
		{GranExtractorSite, "TXT1|wiki001.example.com"},
		{GranExtractorSitePred, "TXT1|wiki001.example.com|/people/person/birth_place"},
		{GranExtractorSitePredPattern, "TXT1|wiki001.example.com|/people/person/birth_place|tpl2|birth place"},
		{GranExtractorOnly, "TXT1|tpl2|birth place"},
		{GranSourceOnly, "http://wiki001.example.com/p3"},
	}
	for _, c := range cases {
		if got := c.g.Key(x); got != c.want {
			t.Errorf("%v key = %q, want %q", c.g, got, c.want)
		}
		if c.g.String() == "" {
			t.Error("empty granularity name")
		}
	}
}
