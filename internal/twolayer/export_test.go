package twolayer

// FirstPass reports, for the State a seeded run returned and nobody has
// seeded from yet, how many statements that run's first E-step scored and
// how many its graphs hold — equal when it took the full pass. ok is false
// when the State carries no engines.
func FirstPass(st *State) (scored, total int, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, e := range st.engines {
		scored += e.rescored
		total += e.g.NumStatements()
	}
	return scored, total, len(st.engines) > 0
}
