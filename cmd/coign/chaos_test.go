package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/logger"
	"repro/internal/pipeline"
)

// TestChaosFaultFlags: chaos refuses fault flags that are not a policy —
// rates outside [0, 1] and fewer than one delivery attempt — before it
// prints anything, and prints the policy the run used. -from-model takes
// only the model's drop and corrupt rates, the ones the virtual clock
// prices, so the model's truncation and delay do not refuse the run.
func TestChaosFaultFlags(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		args []string
		want string // the error, or the first printed line
	}{
		{[]string{"-drop", "1.5"}, "fault rates drop 1.5, corrupt 0.05"},
		{[]string{"-drop", "-0.5", "-corrupt", "-0.2"}, "fault rates drop -0.5, corrupt -0.2"},
		{[]string{"-attempts", "0"}, "-attempts 0: a message needs at least one delivery attempt"},
		{[]string{"-drop", "0.5", "-attempts", "1"}, "o_oldwp7 on 10BaseT (drop 50.0%, corrupt 5.0%, 1 attempt(s), seed 1)\n"},
		{[]string{"-from-model", "-network", "ISDN"}, "o_oldwp7 on ISDN (drop 0.5%, corrupt 0.1%, 4 attempt(s), seed 1)\n"},
	} {
		var out bytes.Buffer
		err := cmdChaos(context.Background(), c.args, &out)
		if err != nil {
			if !strings.Contains(err.Error(), c.want) || out.Len() > 0 {
				t.Errorf("chaos %v: err %v, printed %q; want err containing %q and nothing printed", c.args, err, out.String(), c.want)
			}
			continue
		}
		if first, _, _ := strings.Cut(out.String(), "\n"); first+"\n" != c.want {
			t.Errorf("chaos %v printed %q first, want %q", c.args, first, c.want)
		}
	}
}

// TestChaosTracePrintsOnlyFaults: -trace prints the run's fault records and
// nothing else of its trace, one line each, ahead of the summary. For a
// completed run there is one line per drop, corruption and give-up the
// summary's faults line counts. A run that gives up prints no faults
// line, so its give-up lines are held to the outcome's count and its lines
// to the fault records of the same run's stored trace.
func TestChaosTracePrintsOnlyFaults(t *testing.T) {
	t.Parallel()
	faultLines := func(t *testing.T, args []string) (faults, rest []string) {
		t.Helper()
		var out bytes.Buffer
		if err := cmdChaos(context.Background(), append(args, "-trace"), &out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
		for i, l := range lines {
			if !strings.HasPrefix(l, "fault ") {
				return lines[:i], lines[i:]
			}
		}
		return lines, nil
	}

	faults, rest := faultLines(t, []string{"-from-model", "-network", "ISDN", "-seed", "7"})
	var drops, corrupts, retries, giveups int
	if len(rest) != 4 {
		t.Fatalf("completed run printed %q after its fault lines, want the 4 summary lines", rest)
	}
	if _, err := fmt.Sscanf(rest[3], "  faults:    %d drops, %d corruptions, %d retries, %d giveups",
		&drops, &corrupts, &retries, &giveups); err != nil {
		t.Fatalf("faults line %q: %v", rest[3], err)
	}
	if len(faults) == 0 || len(faults) != drops+corrupts+giveups {
		t.Errorf("completed run printed %d fault lines, its summary counts %d drops + %d corruptions + %d giveups",
			len(faults), drops, corrupts, giveups)
	}

	args := []string{"-drop", "0.05", "-seed", "7"}
	faults, rest = faultLines(t, args)
	if len(rest) != 2 || !strings.HasPrefix(rest[1], "  outcome: FAILED") {
		t.Fatalf("given-up run printed %q after its fault lines, want the header and a FAILED outcome", rest)
	}
	var undeliverable int
	if _, after, ok := strings.Cut(rest[1], "o_oldwp7: "); !ok {
		t.Fatalf("outcome %q names no scenario", rest[1])
	} else if _, err := fmt.Sscanf(after, "%d call(s) undeliverable", &undeliverable); err != nil {
		t.Fatalf("outcome %q: %v", rest[1], err)
	}
	if n := countPrefix(faults, "fault giveup "); n == 0 || n != undeliverable {
		t.Errorf("given-up run printed %d giveup lines, its outcome counts %d undeliverable calls", n, undeliverable)
	}
	adps, err := pipeline.Open(pipeline.Spec{Scenarios: []string{"o_oldwp7"}})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := adps.RunConfig(dist.ModeDefault, "o_oldwp7")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed, cfg.Trace = 7, logger.NewTrace()
	cfg.Faults = &dist.FaultPolicy{Drop: 0.05, Corrupt: 0.05,
		CallPolicy: dist.CallPolicy{Timeout: 250 * time.Millisecond, MaxAttempts: 4, Backoff: 10 * time.Millisecond}}
	if _, err := dist.Run(cfg); !errors.Is(err, dist.ErrTimeout) {
		t.Fatalf("the same run returned %v, want a give-up", err)
	}
	stored := 0
	for i := 0; i < cfg.Trace.Len(); i++ {
		if cfg.Trace.At(i).Kind == logger.EvFault {
			stored++
		}
	}
	if len(faults) != stored {
		t.Errorf("given-up run printed %d fault lines, its stored trace holds %d fault records", len(faults), stored)
	}
}

// countPrefix returns how many of lines start with prefix.
func countPrefix(lines []string, prefix string) int {
	n := 0
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			n++
		}
	}
	return n
}
