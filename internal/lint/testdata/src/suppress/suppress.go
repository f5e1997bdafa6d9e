// Package fixture exercises the suppression-directive contract: a directive
// without a reason is itself a diagnostic and suppresses nothing, a
// directive naming an unknown analyzer is flagged as a typo rather than
// silently ignored, and a directive that suppresses no finding is flagged
// as stale.
package fixture

func missingReason(m map[string]float64) float64 {
	t := 0.0
	// want@+2 `requires a reason`
	// want@+2 `float accumulation in map order`
	//lint:ignore kflint/mapiter
	for _, v := range m {
		t += v
	}
	return t
}

func unknownAnalyzer(m map[string]int) {
	// want@+1 `unknown analyzer`
	//lint:ignore kflint/nosuch the loop only deletes
	for k := range m {
		delete(m, k)
	}
}

func staleDirective(m map[string]int) int {
	n := 0
	// want@+1 `suppresses nothing`
	//lint:ignore kflint/mapiter counting commutes, so the order is moot
	for range m {
		n++
	}
	return n
}

func usedDirective(m map[string]float64) float64 {
	t := 0.0
	//lint:ignore kflint/mapiter the fixture's used suppression: the sum really is in map order
	for _, v := range m {
		t += v
	}
	return t
}
