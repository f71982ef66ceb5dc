package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/version"
)

func cmdVersion(_ context.Context, args []string, w io.Writer) error {
	if err := newFlags("version").parse(args); err != nil {
		return err
	}
	fmt.Fprintf(w, "coign %s (%s)\n", version.String(), version.Go())
	return nil
}
