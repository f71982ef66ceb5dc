// Package scenario catalogs the profiling-scenario suite of paper Table 1:
// twenty-three scenarios across the three applications, ranging from
// simple to complex, intended to represent realistic usage while fully
// exercising the components found in each application.
package scenario

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/apps/benefits"
	"repro/internal/apps/octarine"
	"repro/internal/apps/photodraw"
	"repro/internal/apps/quickstart"
	"repro/internal/com"
	"repro/internal/synthapp"
)

// Info describes one profiling scenario.
type Info struct {
	Name        string
	App         string
	Description string
	Bigone      bool // synthesis of the app's other scenarios
}

// Table1 returns all twenty-three scenarios in the paper's order.
func Table1() []Info {
	return []Info{
		{octarine.ScenNewDoc, "octarine", "Create text document.", false},
		{octarine.ScenNewMus, "octarine", "Create music document.", false},
		{octarine.ScenNewTbl, "octarine", "Create table document.", false},
		{octarine.ScenOldTb0, "octarine", "View 5-page table.", false},
		{octarine.ScenOldTb3, "octarine", "View 150-page table.", false},
		{octarine.ScenOldWp0, "octarine", "View 5-page text document.", false},
		{octarine.ScenOldWp3, "octarine", "View 13-page text document.", false},
		{octarine.ScenOldWp7, "octarine", "View 208-page text document.", false},
		{octarine.ScenOldBth, "octarine", "View 5-page text doc. with tables.", false},
		{octarine.ScenOffTb3, "octarine", "o_newdoc then o_oldtb3.", false},
		{octarine.ScenOffWp7, "octarine", "o_newdoc then o_oldwp7.", false},
		{octarine.ScenBigone, "octarine", "All of the above in one scenario.", true},
		{photodraw.ScenNewDoc, "photodraw", "Create new image.", false},
		{photodraw.ScenNewMsr, "photodraw", "Create new composition.", false},
		{photodraw.ScenOldCur, "photodraw", "View line drawing.", false},
		{photodraw.ScenOldMsr, "photodraw", "View composition.", false},
		{photodraw.ScenOffCur, "photodraw", "p_newdoc then p_oldcur.", false},
		{photodraw.ScenOffMsr, "photodraw", "p_newdoc then p_oldmsr.", false},
		{photodraw.ScenBigone, "photodraw", "All of the above in one scenario.", true},
		{benefits.ScenVueOne, "benefits", "View records for an employee.", false},
		{benefits.ScenAddOne, "benefits", "Add new employee.", false},
		{benefits.ScenDelOne, "benefits", "Delete employee.", false},
		{benefits.ScenBigone, "benefits", "All of the above in one scenario.", true},
	}
}

// Apps returns the application names in suite order.
func Apps() []string { return []string{"octarine", "photodraw", "benefits"} }

// NewApp constructs an application of the suite by name. Beyond the
// Table 1 suite, the name "synth:<family>:<seed>[:<scale>]" builds a
// generated application from internal/synthapp, so every pipeline entry
// point that takes an app name can also run against the synthetic corpus.
func NewApp(name string) (*com.App, error) {
	if strings.HasPrefix(name, "synth:") {
		return newSynthApp(name)
	}
	switch name {
	case "octarine":
		return octarine.New(), nil
	case "photodraw":
		return photodraw.New(), nil
	case "benefits":
		return benefits.New(), nil
	case "quickstart":
		// The demonstration application of the quick-start example; not
		// part of the Table 1 suite, but buildable for the coverage gate.
		return quickstart.New(), nil
	default:
		return nil, fmt.Errorf("scenario: unknown application %q", name)
	}
}

// newSynthApp parses a "synth:<family>:<seed>[:<scale>]" application name
// and generates the corresponding synthetic application.
func newSynthApp(name string) (*com.App, error) {
	sa, err := generateSynth(name)
	if err != nil {
		return nil, err
	}
	return sa.App, nil
}

// ErrBadSpec is the sentinel every synthetic-app spec rejection matches:
// errors.Is(err, ErrBadSpec) reports whether an error came from parsing
// or generating a "synth:..." application name.
var ErrBadSpec = errors.New("bad synthetic app spec")

// SpecError is the typed rejection of a "synth:<family>:<seed>[:<scale>]"
// application name. Field names the part that failed ("form", "seed",
// "scale", or "generate" for generator-level rejections such as an
// unknown family or an out-of-range scale); Err holds the underlying
// cause when there is one.
type SpecError struct {
	Spec   string // the application name as given
	Field  string
	Reason string
	Err    error
}

func (e *SpecError) Error() string {
	msg := fmt.Sprintf("scenario: synthetic app name %q: %s", e.Spec, e.Reason)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *SpecError) Unwrap() error { return e.Err }

// Is matches ErrBadSpec, so callers can test the class without carrying
// the concrete type.
func (e *SpecError) Is(target error) bool { return target == ErrBadSpec }

// generateSynth parses a "synth:<family>:<seed>[:<scale>]" name and runs
// the generator, returning the full generation record (app, training
// suite, planted ground truths). Every rejection is a *SpecError.
func generateSynth(name string) (*synthapp.App, error) {
	parts := strings.Split(name, ":")
	if len(parts) != 3 && len(parts) != 4 {
		return nil, &SpecError{Spec: name, Field: "form", Reason: "want synth:<family>:<seed>[:<scale>]"}
	}
	seed, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return nil, &SpecError{Spec: name, Field: "seed", Reason: "bad seed", Err: err}
	}
	cfg := synthapp.Config{Family: synthapp.Family(parts[1]), Seed: seed}
	if len(parts) == 4 {
		scale, err := strconv.Atoi(parts[3])
		if err != nil {
			return nil, &SpecError{Spec: name, Field: "scale", Reason: "bad scale", Err: err}
		}
		cfg.Scale = scale
	}
	sa, err := synthapp.Generate(cfg)
	if err != nil {
		return nil, &SpecError{Spec: name, Field: "generate", Reason: "generating", Err: err}
	}
	return sa, nil
}

// TrainingForApp returns the classifier-training scenarios (everything
// except the bigone synthesis). For "synth:..." names it is the
// generated application's own training suite, so profile-dependent
// stages (coverage, purity grading) work on the synthetic corpus too.
func TrainingForApp(app string) []string {
	if strings.HasPrefix(app, "synth:") {
		sa, err := generateSynth(app)
		if err != nil {
			return nil
		}
		return append([]string(nil), sa.Training...)
	}
	var out []string
	for _, s := range Table1() {
		if s.App == app && !s.Bigone {
			out = append(out, s.Name)
		}
	}
	return out
}

// BigoneForApp returns the app's bigone scenario name.
func BigoneForApp(app string) (string, error) {
	for _, s := range Table1() {
		if s.App == app && s.Bigone {
			return s.Name, nil
		}
	}
	return "", fmt.Errorf("scenario: no bigone scenario for %q", app)
}

// Lookup returns the Info for a scenario name.
func Lookup(name string) (Info, error) {
	for _, s := range Table1() {
		if s.Name == name {
			return s, nil
		}
	}
	return Info{}, fmt.Errorf("scenario: unknown scenario %q", name)
}
