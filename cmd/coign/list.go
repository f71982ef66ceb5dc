package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/scenario"
)

func cmdList(_ context.Context, args []string, w io.Writer) error {
	if err := newFlags("list").parse(args); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-10s %s\n", "Scenario", "App", "Description")
	for _, s := range scenario.Table1() {
		fmt.Fprintf(w, "%-10s %-10s %s\n", s.Name, s.App, s.Description)
	}
	return nil
}
