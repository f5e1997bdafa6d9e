package exper

import "kfusion/internal/fusion"

// SweepPreset names one configuration of the standard multi-config sweep.
type SweepPreset struct {
	Name string
	Cfg  fusion.Config
}

// ConfigSweep returns the 4-config sweep BenchmarkConfigSweep runs: VOTE,
// ACCU, POPACCU and POPACCU with the §4.3.2 filters, all at the default
// (Extractor, URL) granularity so they share one compiled claim graph —
// the workload shape of the paper's Tables 1-3 and the ablation suite,
// where many methods run over one extracted claim set. (The sweep-reuse
// workload builds its own list, with POPACCU+unsup for the filtered one.)
func ConfigSweep() []SweepPreset {
	filtered := fusion.PopAccuConfig()
	filtered.FilterByCoverage = true
	filtered.AccuracyThreshold = 0.5
	return []SweepPreset{
		{Name: "VOTE", Cfg: fusion.VoteConfig()},
		{Name: "ACCU", Cfg: fusion.AccuConfig()},
		{Name: "POPACCU", Cfg: fusion.PopAccuConfig()},
		{Name: "POPACCU+filters", Cfg: filtered},
	}
}
