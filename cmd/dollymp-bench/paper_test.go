//go:build !race

package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestCommittedPaperReproduces regenerates the whole paper-scale text
// output (`make figures-paper`, about 4 s) and holds it line by line
// against the committed docs/paper_scale_output.txt, the raw output
// EXPERIMENTS.md quotes. The §6.3.3 overhead's two timings are wall
// clock and depend on the host; only their labels are compared.
func TestCommittedPaperReproduces(t *testing.T) {
	var buf bytes.Buffer
	if err := realMain("paper", "", "text", &buf); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("../../docs/paper_scale_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(buf.String(), "\n")
	want := strings.Split(string(committed), "\n")
	if len(got) != len(want) {
		t.Errorf("%d lines, committed %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if g, w := maskTiming(got[i]), maskTiming(want[i]); g != w {
			t.Errorf("line %d:\n got       %q\n committed %q", i+1, g, w)
		}
	}
}

// maskTiming drops the measured value of the overhead's two wall-clock
// lines, keeping their label (and the placement count it carries).
func maskTiming(line string) string {
	t := strings.TrimSpace(line)
	if strings.HasPrefix(t, "priority recomputation") || strings.HasPrefix(t, "full placement round") {
		return line[:strings.LastIndex(line, ": ")+1]
	}
	return line
}
