package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/version"
)

func cmdVersion(_ context.Context, _ []string, w io.Writer) error {
	fmt.Fprintf(w, "coign %s (%s)\n", version.String(), version.Go())
	return nil
}
