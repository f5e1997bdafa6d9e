package world

import (
	"math"
	"testing"
)

// TestValidateRejectsOutOfRange: every rate, coverage and fraction —
// Freebase's included — must lie in its documented range, and NaN, which
// fails every comparison, is rejected wherever a float is read.
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
		{"DuplicateCityRate NaN", func(c *Config) { c.DuplicateCityRate = nan }},
		{"DuplicateCityRate > 1", func(c *Config) { c.DuplicateCityRate = 1.5 }},
		{"FunctionalFraction NaN", func(c *Config) { c.FunctionalFraction = nan }},
		{"FactCoverage NaN", func(c *Config) { c.FactCoverage = nan }},
		{"ConfusableFraction NaN", func(c *Config) { c.ConfusableFraction = nan }},
		{"ConfusableFraction > 1", func(c *Config) { c.ConfusableFraction = 2 }},
		{"EntityZipfExponent NaN", func(c *Config) { c.EntityZipfExponent = nan }},
		{"HeadEntityCoverage NaN", func(c *Config) { c.Freebase.HeadEntityCoverage = nan }},
		{"TailEntityCoverage < 0", func(c *Config) { c.Freebase.TailEntityCoverage = -0.5 }},
		{"ItemCoverage NaN", func(c *Config) { c.Freebase.ItemCoverage = nan }},
		{"ValueCoverage > 1", func(c *Config) { c.Freebase.ValueCoverage = 1.2 }},
		{"GeneralValueRate NaN", func(c *Config) { c.Freebase.GeneralValueRate = nan }},
		{"WrongValueRate NaN", func(c *Config) { c.Freebase.WrongValueRate = nan }},
		{"WrongValueRate +Inf", func(c *Config) { c.Freebase.WrongValueRate = math.Inf(1) }},
	}
	for _, tc := range cases {
		c := DefaultConfig(1)
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
		if _, err := Generate(c); err == nil {
			t.Errorf("%s: Generate accepted it", tc.name)
		}
	}
}
