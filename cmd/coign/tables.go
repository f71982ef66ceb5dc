package main

import (
	"context"
	"io"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/pipeline"
)

// classifierTable is the command for Tables 2 and 3: both evaluate
// classifiers on one application and print the same rows under different
// headings.
func classifierTable(name string, table func(string) ([]*analysis.ClassifierEval, error),
	print func(io.Writer, []*analysis.ClassifierEval)) func(context.Context, []string, io.Writer) error {
	return func(_ context.Context, args []string, w io.Writer) error {
		fs := newFlags(name)
		app := fs.String("app", "octarine", "application")
		if err := fs.parse(args); err != nil {
			return err
		}
		rows, err := table(*app)
		if err != nil {
			return err
		}
		print(w, rows)
		return nil
	}
}

// scenarioTable is the command for Tables 4 and 5: one pass over every
// scenario yields the rows of both.
func scenarioTable(name string, print func(io.Writer, []*pipeline.Result)) func(context.Context, []string, io.Writer) error {
	return func(ctx context.Context, args []string, w io.Writer) error {
		if err := newFlags(name).parse(args); err != nil {
			return err
		}
		rows, err := experiments.Tables4And5(ctx)
		if err != nil {
			return err
		}
		print(w, rows)
		return nil
	}
}

func cmdFigures(ctx context.Context, args []string, w io.Writer) error {
	if err := newFlags("figures").parse(args); err != nil {
		return err
	}
	rows, err := experiments.Figures(ctx)
	if err != nil {
		return err
	}
	experiments.PrintFigures(w, rows)
	return nil
}
