package experiments

import (
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/staticanal"
)

// openApp resolves an application by name and opens its analysis session.
// A static scan that failed is the error: no report row is built from
// partial scans.
func openApp(appName string) (*core.ADPS, error) {
	app, err := scenario.NewApp(appName)
	if err != nil {
		return nil, err
	}
	adps := core.New(app)
	return adps, adps.Err()
}

// profileScenario opens the session of the application the Table 1
// catalog lists the scenario under, instruments its binary, and profiles
// that one scenario.
func profileScenario(scenName string) (*core.ADPS, *profile.Profile, error) {
	info, err := scenario.Lookup(scenName)
	if err != nil {
		return nil, nil, err
	}
	adps, err := openApp(info.App)
	if err != nil {
		return nil, nil, err
	}
	if err := adps.Instrument(); err != nil {
		return nil, nil, err
	}
	p, _, err := adps.ProfileScenario(scenName, false)
	return adps, p, err
}

// tally counts the verifier findings of the given hard-error kinds, and
// the soft warnings every verifier emits for components the static model
// cannot resolve.
func tally(findings []staticanal.Finding, kinds ...string) (hard, warnings int) {
	for _, f := range findings {
		for _, k := range kinds {
			if f.Kind == k {
				hard++
			}
		}
		if f.Kind == staticanal.KindUnknownClass && f.Severity == staticanal.SeverityWarning {
			warnings++
		}
	}
	return hard, warnings
}
