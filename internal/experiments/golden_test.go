package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// -update rewrites the committed output instead of comparing against it.
var update = flag.Bool("update", false, "rewrite experiments_output.txt with current output")

// goldenPath is the committed full run of `experiments all`.
var goldenPath = filepath.Join("..", "..", "experiments_output.txt")

// sectionBreak separates two experiments' outputs in the committed file.
const sectionBreak = "\n" + Separator + "\n"

// TestExperimentsGolden regenerates every experiment at full scale and
// compares it with its own section of the committed
// experiments_output.txt, so a change that moves one of the paper's
// numbers fails here under the name of the table or figure it moved.
// Only Fig. 13's wall-clock columns are masked. Fig. 9 runs the
// step-accurate simulator (the slowest experiment by far) and is skipped
// under -short. With -update, every experiment (Fig. 9 included)
// rewrites its section.
func TestExperimentsGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	sections := strings.Split(string(raw), sectionBreak)
	if len(sections) != len(All) {
		if !*update {
			t.Fatalf("%s has %d sections, want one per experiment (%d)", goldenPath, len(sections), len(All))
		}
		sections = make([]string, len(All))
	}
	for i, e := range All {
		t.Run(e.Name, func(t *testing.T) {
			if e.Name == "fig9" && testing.Short() && !*update {
				t.Skip("step-accurate simulation in short mode")
			}
			var buf bytes.Buffer
			if err := e.Run(&buf, Options{}); err != nil {
				t.Fatal(err)
			}
			if *update {
				sections[i] = buf.String()
				return
			}
			got, want := buf.String(), sections[i]
			if e.Name == "fig13" {
				got, want = maskWallClock(got), maskWallClock(want)
			}
			if got != want {
				t.Errorf("%s moved: its section (%d of %d) of %s differs\n%s(regenerate with -update if the change is intentional)",
					e.Name, i+1, len(All), goldenPath, lineDiff(got, want))
			}
		})
	}
	if *update {
		out := strings.Join(sections, sectionBreak)
		if err := os.WriteFile(goldenPath, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(out))
	}
}

var averageRate = regexp.MustCompile(`average rate \S+ designs/s`)

// maskWallClock blanks Fig. 13's measured columns: the time and
// designs/s cells of the DSE statistics table (from the header's "time"
// column on; the columns before it do not depend on timing, so their
// alignment is stable) and the average rate of the summary line.
func maskWallClock(s string) string {
	lines := strings.Split(s, "\n")
	col := -1
	for i, ln := range lines {
		switch {
		case strings.HasSuffix(ln, "rate (designs/s)"):
			col = strings.Index(ln, "time")
		case ln == "" || strings.HasPrefix(ln, "total raw space"):
			col = -1
		}
		if col >= 0 && len(ln) > col {
			lines[i] = ln[:col] + "<wall clock>"
		}
		lines[i] = averageRate.ReplaceAllString(lines[i], "average rate <wall clock> designs/s")
	}
	return strings.Join(lines, "\n")
}

// lineDiff lists the first lines where got and want differ.
func lineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < max(len(g), len(w)) && shown < 10; i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl == wl {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  got:  %q\n  want: %q\n", i+1, gl, wl)
		shown++
	}
	return b.String()
}
