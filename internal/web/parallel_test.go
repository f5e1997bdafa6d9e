package web

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"kfusion/internal/world"
)

// TestGenerateWorkerIndependent: the corpus is the same at every worker
// count — sites and copiers are crawled on GOMAXPROCS workers and merged by
// index, so a merge in completion order would show up here.
func TestGenerateWorkerIndependent(t *testing.T) {
	w := world.MustGenerate(world.DefaultConfig(42))
	cfg := DefaultConfig(43)
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	var want *Corpus
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		got := MustGenerate(w, cfg)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got.Pages, want.Pages) {
			t.Errorf("GOMAXPROCS %d: pages differ from GOMAXPROCS 1", procs)
		}
		if !reflect.DeepEqual(got.SiteErrorRate, want.SiteErrorRate) {
			t.Errorf("GOMAXPROCS %d: site error rates differ from GOMAXPROCS 1", procs)
		}
	}
}

// TestValidateRejectsOutOfRange: every rate and share must lie in [0,1] and
// the error spread must be >= 0; NaN fails every comparison, so each check
// is written as !(in range) and rejects it too.
func TestValidateRejectsOutOfRange(t *testing.T) {
	for _, c := range []Config{DefaultConfig(1), BenchConfig(1)} {
		if err := c.Validate(); err != nil {
			t.Fatalf("preset rejected: %v", err)
		}
	}
	nan := math.NaN()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"MeanSiteErrorRate NaN", func(c *Config) { c.MeanSiteErrorRate = nan }},
		{"MeanSiteErrorRate > 1", func(c *Config) { c.MeanSiteErrorRate = 1.5 }},
		{"SiteErrorStdDev NaN", func(c *Config) { c.SiteErrorStdDev = nan }},
		{"SiteErrorStdDev < 0", func(c *Config) { c.SiteErrorStdDev = -0.1 }},
		{"GeneralizeRate NaN", func(c *Config) { c.GeneralizeRate = nan }},
		{"GeneralizeRate < 0", func(c *Config) { c.GeneralizeRate = -0.1 }},
		{"BoilerplateRate NaN", func(c *Config) { c.BoilerplateRate = nan }},
		{"BoilerplateRate > 1", func(c *Config) { c.BoilerplateRate = 2 }},
		{"SyndicationRate NaN", func(c *Config) { c.SyndicationRate = nan }},
		{"SyndicationRate < 0", func(c *Config) { c.SyndicationRate = -1 }},
		{"SyndicationShare NaN", func(c *Config) { c.SyndicationShare = nan }},
		{"SyndicationShare > 1", func(c *Config) { c.SyndicationShare = 1.01 }},
		{"MeanSiteErrorRate -Inf", func(c *Config) { c.MeanSiteErrorRate = math.Inf(-1) }},
	}
	w := world.MustGenerate(world.DefaultConfig(1))
	for _, tc := range cases {
		c := DefaultConfig(1)
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
		if _, err := Generate(w, c); err == nil {
			t.Errorf("%s: Generate accepted it", tc.name)
		}
	}
}
