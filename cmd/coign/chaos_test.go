package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestChaosFaultFlags: chaos refuses fault flags that are not a policy —
// rates outside [0, 1], fewer than one delivery attempt, and so many
// attempts that one call's backoffs overflow — before it prints anything,
// and prints the policy the run used. -from-model takes
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
		{[]string{"-attempts", "41", "-backoff", "10ms"}, "call policy of 41 attempt(s), timeout 250ms, backoff 10ms: one call's deadlines and backoffs overflow a time.Duration"},
		{[]string{"-drop", "0.5", "-attempts", "1"}, "o_oldwp7 on 10BaseT (drop 50.0%, corrupt 5.0%, 1 attempt(s), seed 1)\n"},
		{[]string{"-from-model", "-network", "ISDN"}, "o_oldwp7 on ISDN (drop 0.5%, corrupt 0.1%, 4 attempt(s), seed 1)\n"},
		// Every call gives up after ~524,287 h of backoff: the clock
		// overflows, and that is a reported outcome too.
		{[]string{"-drop", "1", "-corrupt", "0", "-attempts", "20", "-timeout", "1s", "-backoff", "1h"}, "o_oldwp7 on 10BaseT (drop 100.0%, corrupt 0.0%, 20 attempt(s), seed 1)\n"},
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
// nothing else of its trace, one line each, ahead of the summary: one line
// per drop, corruption and give-up the summary's faults line counts. A run
// that gives up prints its faults line too, and its give-up lines are held
// to the outcome's count of undeliverable calls as well.
func TestChaosTracePrintsOnlyFaults(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		args   []string
		failed bool
	}{
		{[]string{"-from-model", "-network", "ISDN", "-seed", "7"}, false},
		{[]string{"-drop", "0.05", "-seed", "7"}, true},
	} {
		var out bytes.Buffer
		if err := cmdChaos(context.Background(), append(c.args, "-trace"), &out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
		faults, rest := lines, []string(nil)
		for i, l := range lines {
			if !strings.HasPrefix(l, "fault ") {
				faults, rest = lines[:i], lines[i:]
				break
			}
		}
		want := 4 // header, outcome, comm time, faults
		if c.failed {
			want = 3 // header, FAILED outcome, faults
		}
		if len(rest) != want || strings.HasPrefix(rest[1], "  outcome: FAILED") != c.failed {
			t.Fatalf("chaos %v printed %q after its fault lines, want %d summary lines, failed %v", c.args, rest, want, c.failed)
		}
		var drops, corrupts, retries, giveups int
		if _, err := fmt.Sscanf(rest[len(rest)-1], "  faults:    %d drops, %d corruptions, %d retries, %d giveups",
			&drops, &corrupts, &retries, &giveups); err != nil {
			t.Fatalf("chaos %v: faults line %q: %v", c.args, rest[len(rest)-1], err)
		}
		if len(faults) == 0 || len(faults) != drops+corrupts+giveups {
			t.Errorf("chaos %v printed %d fault lines, its summary counts %d drops + %d corruptions + %d giveups",
				c.args, len(faults), drops, corrupts, giveups)
		}
		if n := countPrefix(faults, "fault giveup "); n != giveups {
			t.Errorf("chaos %v printed %d giveup lines, its summary counts %d", c.args, n, giveups)
		}
		if !c.failed {
			continue
		}
		var undeliverable int
		if _, after, ok := strings.Cut(rest[1], "o_oldwp7: "); !ok {
			t.Fatalf("outcome %q names no scenario", rest[1])
		} else if _, err := fmt.Sscanf(after, "%d call(s) undeliverable", &undeliverable); err != nil {
			t.Fatalf("outcome %q: %v", rest[1], err)
		}
		if giveups == 0 || giveups != undeliverable {
			t.Errorf("given-up run counts %d giveups, its outcome %d undeliverable calls", giveups, undeliverable)
		}
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
