package server

import (
	"fmt"

	"kfusion/internal/fusion"
	"kfusion/internal/genstore"
	"kfusion/internal/twolayer"
)

// newChain binds cfg's method to the append chain the generation store
// replays. The chain itself is genstore.Chain — the same value kfuse runs —
// so live appends and journal replay fold batches through one function and a
// restarted server reconstructs the exact generation the crashed one had.
// The first batch cold-fuses under the method's full round cap; every later
// batch runs cfg.WarmRounds rounds of online EM.
func newChain(cfg *Config) (*genstore.Chain, error) {
	switch cfg.Method {
	case "twolayer":
		tc := twolayer.DefaultConfig()
		switch cfg.Granularity {
		case "", "url":
		case "site":
			tc.SiteLevel = true
		default:
			return nil, fmt.Errorf("server: unknown twolayer granularity %q (want url or site)", cfg.Granularity)
		}
		tc.Workers = cfg.Workers
		return genstore.TwoLayerChain(tc, cfg.WarmRounds, 1), nil
	case "popaccu+":
		return nil, fmt.Errorf("server: method popaccu+ needs a gold labeler; the serving write path has none")
	}
	fc, err := fusion.Preset(cfg.Method)
	if err != nil {
		return nil, fmt.Errorf("server: unknown method %q (want vote, accu, popaccu, popaccu+unsup or twolayer)", cfg.Method)
	}
	if cfg.Granularity != "" {
		if fc.Granularity, err = fusion.ParseGranularity(cfg.Granularity); err != nil {
			return nil, err
		}
	}
	fc.Workers = cfg.Workers
	return genstore.ClaimChain(cfg.Method, fc, cfg.WarmRounds, 1), nil
}
