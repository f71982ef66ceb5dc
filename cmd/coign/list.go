package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/scenario"
)

func cmdList(_ context.Context, _ []string, w io.Writer) error {
	fmt.Fprintf(w, "%-10s %-10s %s\n", "Scenario", "App", "Description")
	for _, s := range scenario.Table1() {
		fmt.Fprintf(w, "%-10s %-10s %s\n", s.Name, s.App, s.Description)
	}
	return nil
}
