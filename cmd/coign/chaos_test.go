package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
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
