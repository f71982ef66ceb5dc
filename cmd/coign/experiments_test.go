package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
)

// experimentBlock is one fenced block of EXPERIMENTS.md: the command its
// first line names and the text the rest of the block holds.
type experimentBlock struct {
	line int // line number of the block's `$ coign` line
	cmd  *command
	args []string
	want string
}

// experimentBlocks parses every fenced block of an EXPERIMENTS.md text.
// Each must open with a `$ coign <command> [args]` line naming a command
// of the table; the rest of the block, one "\n" after each line, is what
// the command prints.
func experimentBlocks(doc string) ([]experimentBlock, error) {
	var blocks []experimentBlock
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(strings.TrimSpace(lines[i]), "```") {
			continue
		}
		end := i + 1
		for end < len(lines) && !strings.HasPrefix(strings.TrimSpace(lines[end]), "```") {
			end++
		}
		if end == len(lines) {
			return nil, fmt.Errorf("line %d: fenced block is never closed", i+1)
		}
		fields := strings.Fields(lines[i+1])
		if len(fields) < 3 || !strings.HasPrefix(lines[i+1], "$ coign ") {
			return nil, fmt.Errorf("line %d: fenced block does not open with a `$ coign <command>` line", i+2)
		}
		cmd := lookup(fields[2])
		if cmd == nil {
			return nil, fmt.Errorf("line %d: coign has no command %q", i+2, fields[2])
		}
		var want strings.Builder
		for _, l := range lines[i+2 : end] {
			want.WriteString(l + "\n")
		}
		blocks = append(blocks, experimentBlock{line: i + 2, cmd: cmd, args: fields[3:], want: want.String()})
		i = end
	}
	return blocks, nil
}

// TestExperimentsAreCommandOutput holds EXPERIMENTS.md to the commands
// that print it: every fenced block's command runs in-process, and the
// block must be byte for byte what it prints.
func TestExperimentsAreCommandOutput(t *testing.T) {
	t.Parallel()
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := experimentBlocks(string(doc))
	if err != nil {
		t.Fatalf("EXPERIMENTS.md %v", err)
	}
	if len(blocks) == 0 {
		t.Fatal("EXPERIMENTS.md has no fenced block")
	}
	for _, b := range blocks {
		line := strings.Join(append([]string{b.cmd.name}, b.args...), " ")
		t.Run(line, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			if err := b.cmd.run(context.Background(), b.args, &out); err != nil {
				t.Fatalf("EXPERIMENTS.md line %d: coign %s: %v", b.line, line, err)
			}
			if got := out.String(); got != b.want {
				t.Errorf("EXPERIMENTS.md line %d: the block differs from what `coign %s` prints; "+
					"paste the output of `go run ./cmd/coign %s` under its command line.\nprinted:\n%s\nblock:\n%s",
					b.line, line, line, got, b.want)
			}
		})
	}
}

// TestExperimentBlocksRefuseStrays: a fenced block that names no coign
// command, or one the table does not have, or that never closes, fails
// the parse instead of going unchecked.
func TestExperimentBlocksRefuseStrays(t *testing.T) {
	t.Parallel()
	for _, doc := range []string{
		"```\nScenario   App\n```\n",
		"```\n```\n",
		"```\n$ go run ./cmd/coign list\n```\n",
		"```\n$ coign\n```\n",
		"```\n$ coign tabel4\n```\n",
		"```\n$ coign list\nScenario\n",
		"text\n  ```\n  $ coign list\n  ```\n",
	} {
		if blocks, err := experimentBlocks(doc); err == nil {
			t.Errorf("%q parsed as %d block(s)", doc, len(blocks))
		}
	}
	blocks, err := experimentBlocks("prose\n```\n$ coign adapt -scenario o_oldwp7\nNetwork\nISDN\n```\nmore prose\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 || blocks[0].line != 3 || blocks[0].cmd.name != "adapt" ||
		strings.Join(blocks[0].args, " ") != "-scenario o_oldwp7" || blocks[0].want != "Network\nISDN\n" {
		t.Errorf("parsed %+v", blocks)
	}
}
