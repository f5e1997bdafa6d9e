package exper

// Experiment binds a paper artifact to the function that regenerates it.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Dataset) *Table
}

// Registry lists every reproduced table and figure in paper order.
var Registry = []Experiment{
	{"table1", "Overview of extracted knowledge (Table 1)", Table1},
	{"table2", "Extractor volume and quality (Table 2)", Table2},
	{"table3", "Functional vs non-functional predicates (Table 3)", Table3},
	{"fig3", "Contribution and overlap by content type (Figure 3)", Figure3},
	{"fig4", "Distribution of predicate accuracy (Figure 4)", Figure4},
	{"fig5", "Best-vs-worst extractor gap per page (Figure 5)", Figure5},
	{"fig6", "Triple accuracy by #extractors (Figure 6)", Figure6},
	{"fig7", "Triple accuracy by #URLs (Figure 7)", Figure7},
	{"fig9", "Basic fusion models (Figure 9)", Figure9},
	{"fig10", "Provenance granularity (Figure 10)", Figure10},
	{"fig11", "Provenance selection (Figure 11)", Figure11},
	{"fig12", "Gold-standard initialization (Figure 12)", Figure12},
	{"fig13", "Cumulative refinements (Figure 13)", Figure13},
	{"fig14", "Convergence and sampling (Figure 14)", Figure14},
	{"fig15", "PR curves (Figure 15)", Figure15},
	{"fig16", "Probability distribution (Figure 16)", Figure16},
	{"fig17", "Error analysis (Figure 17)", Figure17},
	{"fig18", "Accuracy by #provenances and #extractors (Figure 18)", Figure18},
	{"fig19", "Kappa across extractor pairs (Figure 19)", Figure19},
	{"fig20", "#Truths per data item (Figure 20)", Figure20},
	{"fig21", "Coverage and accuracy by confidence (Figure 21)", Figure21},
	{"fig22", "Coverage by confidence threshold (Figure 22)", Figure22},
	{"abl-twolayer", "Ablation: two-layer source/extractor model (§5.1)", AblationTwoLayer},
	{"abl-multitruth", "Ablation: latent truth model (§5.3)", AblationMultiTruth},
	{"abl-softlcwa", "Ablation: LCWA with label confidence (§5.7)", AblationSoftLCWA},
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment {
	for i := range Registry {
		if Registry[i].ID == id {
			return &Registry[i]
		}
	}
	return nil
}
