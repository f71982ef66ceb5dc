// Package synthapp generates complete synthetic component applications —
// not just raw ICC graphs (see internal/graph/synth.go) but real com.App
// values with classes, typed interfaces, activation metadata, location
// pins, non-remotable interfaces, and scenario scripts — so every stage
// of the Coign pipeline (reach, staticanal, coverage, profile, cut, dist)
// can be exercised against hundreds of distinct topologies instead of the
// four hand-written suite applications.
//
// Generation is fully seeded and parameterized: the same Config always
// yields the identical application, down to byte-identical binary images,
// so property-suite failures reproduce exactly from a (family, seed)
// pair. Seven families cover the workload shapes named in the roadmap:
//
//	three-tier     GUI tier over business logic over storage; plants an
//	               infeasible default distribution (a server-homed spooler
//	               behind a non-remotable interface called from the GUI)
//	scatter-gather a coordinator scattering work through a dynamic factory
//	               that returns worker interfaces (return-flow propagation)
//	pipeline       a linear stage chain from display to storage with
//	               varying inter-stage payloads (the cut lands at the
//	               narrowest point)
//	gui-swarm      many widget instances passing opaque device contexts
//	               through a shared non-remotable surface interface
//	cache-heavy    a front end behind a cacheable mid-tier cache over a
//	               bulk backing store
//	skewed         the "celebrity" hot-spot: peers hammering one hub with
//	               a heavy-tailed call distribution
//	read-replica   a hot read-mostly catalog with declared state, fanned
//	               into from both machines and rarely written — the
//	               ground-truth plant for the purity analysis, paired
//	               with a write-heavy stateful decoy
//	shared-state   the ground-truth plant for the alias analysis: two
//	               writers obtain opaque handles into one stateful blob
//	               (true aliasing — must stay welded) while readers
//	               exchange immutable payloads minted by a stateless
//	               decoy that must NOT be pinned once the points-to
//	               refinement runs
//
// Every family additionally plants one latent activation edge — a
// statically declared activation site no scenario drives — so the
// scenario-coverage stage always has an uncovered edge to convert into a
// conservative co-location constraint.
package synthapp

import (
	"fmt"
)

// Family names one generator family.
type Family string

// Generator families.
const (
	ThreeTier     Family = "three-tier"
	ScatterGather Family = "scatter-gather"
	Pipeline      Family = "pipeline"
	GUISwarm      Family = "gui-swarm"
	CacheHeavy    Family = "cache-heavy"
	Skewed        Family = "skewed"
	ReadReplica   Family = "read-replica"
	SharedState   Family = "shared-state"
)

// Families returns all generator families in canonical order.
func Families() []Family {
	return []Family{ThreeTier, ScatterGather, Pipeline, GUISwarm, CacheHeavy, Skewed, ReadReplica, SharedState}
}

// Scenario names common to every generated application: three training
// scenarios plus the bigone synthesis of all of them (mirroring the
// paper's Table 1 structure).
const (
	ScenBase   = "y_base"
	ScenHeavy  = "y_heavy"
	ScenAlt    = "y_alt"
	ScenBigone = "y_bigone"
)

// MaxScale bounds the size multiplier; beyond it generated applications
// stop resembling the paper's (thousands of instances, not millions).
const MaxScale = 4

// Config parameterizes one generated application. The zero Scale means 1.
type Config struct {
	Family Family `json:"family"`
	Seed   int64  `json:"seed"`
	// Scale multiplies component and instance counts (1..MaxScale).
	Scale int `json:"scale,omitempty"`
}

// ConfigError is the typed error for invalid generator configurations —
// the only error class Generate returns for bad inputs, so fuzzing can
// distinguish rejected configs from generator defects.
type ConfigError struct {
	Field  string
	Reason string
}

// Error implements the error interface.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("synthapp: bad config %s: %s", e.Field, e.Reason)
}

// normalize validates the config and fills defaults.
func (c Config) normalize() (Config, error) {
	known := false
	for _, f := range Families() {
		if c.Family == f {
			known = true
			break
		}
	}
	if !known {
		return c, &ConfigError{Field: "family", Reason: fmt.Sprintf("unknown family %q", c.Family)}
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Scale < 1 || c.Scale > MaxScale {
		return c, &ConfigError{Field: "scale", Reason: fmt.Sprintf("scale %d outside 1..%d", c.Scale, MaxScale)}
	}
	return c, nil
}

// Name returns the application name a config generates, unique per
// (family, seed, scale).
func (c Config) Name() string {
	name := fmt.Sprintf("synth-%s-s%d", c.Family, c.Seed)
	if c.Scale > 1 {
		name += fmt.Sprintf("-x%d", c.Scale)
	}
	return name
}
