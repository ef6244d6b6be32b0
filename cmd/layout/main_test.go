package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

func runLayout(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("layout %v: %v", args, err)
	}
	return out.String()
}

func TestLayoutAndCriteria(t *testing.T) {
	out := runLayout(t, "-c", "5", "-g", "4")
	for _, want := range []string{
		"declustered, C=5 G=4 via ",
		"(α=0.75), parity overhead 25.0%\n",
		"Offset DISK0 ",
		"\n0      D0.0     D0.1     D0.2     P0       P1 ",
		"criteria over 20 stripes",
		"1. single failure correcting:   true\n",
		"2. distributed reconstruction:  true (every disk pair shares 12 stripes)\n",
		"3. distributed parity:          true (4 parity units per disk)\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "closest feasible") {
		t.Errorf("an exact design printed the substitution note:\n%s", out)
	}
	// Describe, a blank line, the header and two offsets; no criteria.
	short := runLayout(t, "-c", "5", "-g", "4", "-rows", "2", "-check=false")
	if strings.Count(short, "\n") != 5 || strings.Contains(short, "criteria") {
		t.Errorf("-rows 2 -check=false printed:\n%s", short)
	}
}

func TestTuples(t *testing.T) {
	out := runLayout(t, "-c", "21", "-g", "5", "-tuples")
	tuples := regexp.MustCompile(`(?m)^tuple +\d+: \[\d+( \d+){4}\]$`).FindAllString(out, -1)
	if len(tuples) != 21 || strings.Count(out, "tuple") != 21 {
		t.Fatalf("want 21 tuples of 5, got %d:\n%s", len(tuples), out)
	}
	if strings.Contains(out, "Offset") {
		t.Errorf("-tuples also printed the layout:\n%s", out)
	}
	var buf bytes.Buffer
	if err := run([]string{"-c", "5", "-g", "5", "-tuples"}, &buf); err == nil {
		t.Error("-tuples on RAID 5, which has no block design, returned no error")
	}
}

func TestPaperDesigns(t *testing.T) {
	lines := strings.Split(strings.TrimSpace(runLayout(t, "-paper")), "\n")
	var gs []string
	for _, line := range lines {
		if !strings.Contains(line, "paper appendix design") || !strings.Contains(line, "v=21") {
			t.Errorf("unexpected line %q", line)
		}
		gs = append(gs, strings.Fields(line)[0])
	}
	if got := strings.Join(gs, " "); got != "G=3 G=4 G=5 G=6 G=10 G=18" {
		t.Fatalf("-paper listed %q", got)
	}
}

func TestScatter(t *testing.T) {
	out := runLayout(t, "-scatter", "-maxv", "7")
	if !strings.Contains(out, "Known block designs (v ≤ 7,") || !strings.Contains(out, "\n7  3  7 ") {
		t.Fatalf("-scatter -maxv 7 lacks the (7,3) design:\n%s", out)
	}
	if strings.Contains(out, "\n8 ") {
		t.Fatalf("-maxv 7 listed a design on 8 objects:\n%s", out)
	}
}

func TestInfeasibleGSubstitutesClosestAlpha(t *testing.T) {
	out := runLayout(t, "-c", "21", "-g", "7", "-rows", "1")
	for _, want := range []string{
		"declustered, C=21 G=6 via paper appendix design 4",
		"[closest feasible α]\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestBadFlagIsAnError(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("an unknown flag returned no error")
	}
	if err := run([]string{"-c", "5", "-g", "9"}, &out); err == nil {
		t.Fatal("g > c returned no error")
	}
	if out.Len() != 0 {
		t.Fatalf("a failed invocation printed %q", out.String())
	}
}
