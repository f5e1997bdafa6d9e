package main

import (
	"bytes"
	"strings"
	"testing"

	"kfusion/internal/exper"
)

func TestListPrintsRegistryInOrder(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(exper.Registry) {
		t.Fatalf("-list printed %d lines, registry has %d experiments", len(lines), len(exper.Registry))
	}
	for i, ex := range exper.Registry {
		id, title, _ := strings.Cut(lines[i], " ")
		if id != ex.ID || strings.TrimSpace(title) != ex.Title {
			t.Errorf("line %d = %q, want %s %s", i, lines[i], ex.ID, ex.Title)
		}
	}
}

func TestUnknownExperimentAndScaleAreErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig9,fig99"},
		{"-scale", "large"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("kfexper %v: no error", args)
		}
		if buf.Len() != 0 {
			t.Errorf("kfexper %v printed a report before failing: %q", args, buf.String())
		}
	}
}

func TestSelectedExperimentsHoldAtSmallScale(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig9,fig13", "-scale", "small"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== fig9:", "== fig13:", "HOLDS: "} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "VIOLATED") || strings.Contains(out, "== fig10:") {
		t.Errorf("report holds a VIOLATED note or an unselected experiment:\n%s", out)
	}
}

// TestStabilityReport feeds the multi-seed tally three seeds of hand-built
// tables: one check holding on all of them, one on two, one on none.
func TestStabilityReport(t *testing.T) {
	seedNotes := [][]string{
		{"HOLDS: always", "HOLDS: flaky", "VIOLATED: never", "paper: not a check"},
		{"HOLDS: always", "VIOLATED: flaky", "VIOLATED: never"},
		{"HOLDS: always", "HOLDS: flaky", "VIOLATED: never"},
	}
	var st stability
	for _, notes := range seedNotes {
		st.add("figX", &exper.Table{Notes: notes})
	}
	var buf bytes.Buffer
	err := st.report(&buf)
	want := "  stable   3/3  figX: always\n" +
		"  UNSTABLE 2/3  figX: flaky\n" +
		"  VIOLATED 0/3  figX: never\n" +
		"2 check(s) did not hold on every seed\n"
	if buf.String() != want {
		t.Errorf("report =\n%s\nwant\n%s", buf.String(), want)
	}
	if err == nil {
		t.Error("a check that held on no seed must fail the run")
	}

	// A k/N flake alone stays a report.
	st = stability{}
	for _, notes := range seedNotes {
		st.add("figX", &exper.Table{Notes: notes[:2]})
	}
	buf.Reset()
	if err := st.report(&buf); err != nil {
		t.Errorf("flake-only report returned %v", err)
	}
	if !strings.Contains(buf.String(), "UNSTABLE 2/3") || strings.Contains(buf.String(), "VIOLATED") {
		t.Errorf("flake-only report =\n%s", buf.String())
	}
}
