package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/synthapp"
)

// TestDefaultViolationsSurfaced checks the ROADMAP leftover end to end:
// the synth family that plants an infeasible default distribution must
// produce a non-zero DefaultViolations count in its Table 4 row and in
// the rendered table, while a clean family reports zero.
func TestDefaultViolationsSurfaced(t *testing.T) {
	t.Parallel()
	row := func(app string) *pipeline.Result {
		res, err := pipeline.Run(context.Background(),
			pipeline.Spec{App: app, Scenarios: []string{synthapp.ScenBigone}, Compare: true})
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		return res
	}
	planted, clean := row("synth:three-tier:5"), row("synth:cache-heavy:5")
	if planted.DefaultViolations == 0 {
		t.Fatal("three-tier plants an infeasible default but the row reports zero DefaultViolations")
	}
	if clean.DefaultViolations != 0 {
		t.Fatalf("cache-heavy reported %d DefaultViolations, want 0", clean.DefaultViolations)
	}

	var sb strings.Builder
	PrintTable4(&sb, []*pipeline.Result{planted, clean})
	out := sb.String()
	if !strings.Contains(out, "DefViol") {
		t.Fatalf("Table 4 header lacks DefViol column:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("unexpected table shape:\n%s", out)
	}
	if !strings.HasSuffix(strings.TrimRight(lines[2], " "), " 0") {
		t.Fatalf("clean row does not end with a zero DefViol count:\n%s", out)
	}
}
