package twolayer

import (
	"math"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kb"
	"kfusion/internal/mathx"
)

// FuseReference is the original map-keyed two-layer engine, retained as the
// golden oracle the compiled engine (FuseCompiled) is regression-tested
// against — the same role fusion.FuseReference plays for the claim-graph
// engine. It indexes statements, sources and extractors with string/struct
// maps and re-walks them every EM round, sequentially (it ignores
// cfg.Workers).
//
// One behavioral fix relative to the seed implementation: the per-source
// extractor sets are kept as first-extraction-ordered slices instead of maps.
// The layer-1 log-odds is a float sum over those sets, and summing in Go's
// randomized map-iteration order made low-order result bits vary run to run;
// the ordered walk makes the reference deterministic and is the exact order
// the compiled engine's CSR spans reproduce.
func FuseReference(xs []extract.Extraction, cfg Config) (*fusion.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sourceOf := func(x extract.Extraction) string {
		if cfg.SiteLevel {
			return x.Site
		}
		return x.URL
	}

	// Indexes.
	type stKey struct {
		source string
		triple kb.Triple
	}
	type stInfo struct {
		source     string
		triple     kb.Triple
		extractors []string // extractors that extracted it there
	}
	stIdx := map[stKey]int{}
	var sts []stInfo
	extsOnSource := map[string][]string{} // source → extractors that processed it, first-extraction order
	srcAcc := map[string]float64{}
	extPar := map[string]*extParams{}
	tripleIdx := map[kb.Triple]int{}
	var triples []kb.Triple
	var items []kb.DataItem // first-extraction order
	itemTriples := map[kb.DataItem][]int{}
	stByTriple := map[int][]int{} // triple index → st indexes

	for _, x := range xs {
		src := sourceOf(x)
		if !containsString(extsOnSource[src], x.Extractor) {
			extsOnSource[src] = append(extsOnSource[src], x.Extractor)
		}
		if _, ok := srcAcc[src]; !ok {
			srcAcc[src] = cfg.InitSourceAccuracy
		}
		if extPar[x.Extractor] == nil {
			extPar[x.Extractor] = &extParams{recall: cfg.InitRecall, falsePos: cfg.InitFalsePos}
		}
		k := stKey{source: src, triple: x.Triple}
		si, ok := stIdx[k]
		if !ok {
			si = len(sts)
			stIdx[k] = si
			sts = append(sts, stInfo{source: src, triple: x.Triple})
			ti, tok := tripleIdx[x.Triple]
			if !tok {
				ti = len(triples)
				tripleIdx[x.Triple] = ti
				triples = append(triples, x.Triple)
				item := x.Triple.Item()
				if len(itemTriples[item]) == 0 {
					items = append(items, item)
				}
				itemTriples[item] = append(itemTriples[item], ti)
			}
			stByTriple[ti] = append(stByTriple[ti], si)
		}
		if !containsString(sts[si].extractors, x.Extractor) {
			sts[si].extractors = append(sts[si].extractors, x.Extractor)
		}
	}

	stated := make([]float64, len(sts))      // P(source states triple)
	tripleP := make([]float64, len(triples)) // P(triple true)
	for i := range tripleP {
		tripleP[i] = 0.5
	}

	// Layer 1 E-step: statement probabilities from extractor agreement.
	priorLogOdds := math.Log(cfg.PriorStated) - math.Log(1-cfg.PriorStated)
	inferStatements := func() {
		for si := range sts {
			st := &sts[si]
			claimed := map[string]bool{}
			for _, e := range st.extractors {
				claimed[e] = true
			}
			logOdds := priorLogOdds
			// extsOnSource holds each source's extractors in first-extraction
			// order, so the log-odds sum adds the same terms in the same
			// order every run.
			for _, e := range extsOnSource[st.source] {
				p := extPar[e]
				if claimed[e] {
					logOdds += math.Log(p.recall) - math.Log(p.falsePos) //lint:ignore kflint/scalarmath reference spec: the inline scalar ratio is the golden expression the compiled engine's LogRatioSlice tables are measured against.
				} else {
					logOdds += math.Log(1-p.recall) - math.Log(1-p.falsePos) //lint:ignore kflint/scalarmath reference spec: same golden miss-ratio expression as the hit branch.
				}
			}
			stated[si] = mathx.Sigmoid(logOdds)
		}
	}

	// Layer 2: weighted Bayesian truth inference per data item.
	inferTruth := func() {
		for _, item := range items {
			tis := itemTriples[item]
			scores := make([]float64, len(tis))
			for vi, ti := range tis {
				s := 0.0
				for _, si := range stByTriple[ti] {
					// Corroboration gate: an uninformed statement
					// (stated ≈ 0.5) contributes nothing, a confident
					// one (stated >= 0.95) votes with full weight.
					w := (stated[si] - 0.5) / 0.45
					if w <= 0 {
						continue
					}
					if w > 1 {
						w = 1
					}
					a := clampAcc(srcAcc[sts[si].source])
					//lint:ignore kflint/scalarmath reference spec: the scalar source log-weight is the golden expression the compiled engine's LogOddsSlice table is measured against.
					s += float64(w * math.Log(float64(cfg.NFalse)*a/(1-a)))
				}
				scores[vi] = s
			}
			unknown := float64(cfg.NFalse - len(tis))
			if unknown < 0 {
				unknown = 0
			}
			m := 0.0
			for _, s := range scores {
				if s > m {
					m = s
				}
			}
			//lint:ignore kflint/scalarmath reference spec: the unknown-value term of the same golden two-pass softmax, one per data item.
			denom := unknown * math.Exp(-m)
			for _, s := range scores {
				denom += math.Exp(s - m) //lint:ignore kflint/scalarmath reference spec: the two-pass scalar softmax is the golden form mathx.SoftmaxInto is pinned bit-identical to.
			}
			for vi, ti := range tis {
				//lint:ignore kflint/scalarmath reference spec: same golden two-pass softmax as the denominator above.
				tripleP[ti] = math.Exp(scores[vi]-m) / denom
			}
		}
	}

	// M-step: source accuracies and extractor recall/false-positive rates.
	updateParams := func() float64 {
		// Source accuracy: expected-stated-weighted mean truth of claims.
		num := map[string]float64{}
		den := map[string]float64{}
		for si := range sts {
			ti := tripleIdx[sts[si].triple]
			w := stated[si]
			num[sts[si].source] += float64(w * tripleP[ti])
			den[sts[si].source] += w
		}
		maxDelta := 0.0
		const anchor = 2.0 // pseudo-claims at the initial accuracy
		//lint:ignore kflint/mapiter each key updates only srcAcc[src] from that key's own (num, den), and maxDelta is a running max — both commute across visit orders.
		for src, d := range den {
			if d < 1e-9 {
				continue
			}
			// Small sources are anchored toward the prior so a source with
			// one claim does not spiral down with its own claim's
			// probability (the isolated-conflict drift).
			v := (num[src] + float64(anchor*cfg.InitSourceAccuracy)) / (d + anchor)
			if diff := math.Abs(v - srcAcc[src]); diff > maxDelta {
				maxDelta = diff
			}
			srcAcc[src] = v
		}
		// Extractor recall / false positives against expected statements.
		type extAcc struct{ hitStated, stated, hitUnstated, unstated float64 }
		ea := map[string]*extAcc{}
		for e := range extPar {
			ea[e] = &extAcc{}
		}
		for si := range sts {
			st := &sts[si]
			claimed := map[string]bool{}
			for _, e := range st.extractors {
				claimed[e] = true
			}
			for _, e := range extsOnSource[st.source] {
				a := ea[e]
				a.stated += stated[si]
				a.unstated += 1 - stated[si]
				if claimed[e] {
					a.hitStated += stated[si]
					a.hitUnstated += 1 - stated[si]
				}
			}
		}
		//lint:ignore kflint/mapiter each key rewrites only its own extractor's parameters via clampRate, a pure function of that key's tallies — disjoint per-key effects commute.
		for e, a := range ea {
			p := extPar[e]
			if a.stated > 1e-9 {
				p.recall = clampRate(a.hitStated / (a.stated + 1))
			}
			if a.unstated > 1e-9 {
				p.falsePos = clampRate(a.hitUnstated / (a.unstated + 1))
			}
		}
		return maxDelta
	}

	rounds := 0
	for rounds < cfg.Rounds {
		inferStatements()
		inferTruth()
		rounds++
		if updateParams() < 1e-4 {
			break
		}
	}
	inferStatements()
	inferTruth()

	// Assemble the result.
	itemCounts := map[kb.DataItem]int{}
	extractorsOf := map[int]map[string]bool{}
	for si := range sts {
		ti := tripleIdx[sts[si].triple]
		itemCounts[sts[si].triple.Item()]++
		if extractorsOf[ti] == nil {
			extractorsOf[ti] = map[string]bool{}
		}
		for _, e := range sts[si].extractors {
			extractorsOf[ti][e] = true
		}
	}
	res := &fusion.Result{Rounds: rounds, ProvAccuracy: map[string]float64{}}
	for src, a := range srcAcc {
		res.ProvAccuracy[src] = a
	}
	for ti, t := range triples {
		res.Triples = append(res.Triples, fusion.FusedTriple{
			Triple:          t,
			Probability:     tripleP[ti],
			Predicted:       true,
			Provenances:     len(stByTriple[ti]),
			ItemProvenances: itemCounts[t.Item()],
			Extractors:      len(extractorsOf[ti]),
		})
	}
	return res, nil
}

// MustFuseReference is FuseReference for statically-valid configurations.
func MustFuseReference(xs []extract.Extraction, cfg Config) *fusion.Result {
	r, err := FuseReference(xs, cfg)
	if err != nil {
		panic(err)
	}
	return r
}

type extParams struct {
	recall   float64
	falsePos float64
}

func containsString(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
