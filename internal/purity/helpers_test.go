package purity

import (
	"slices"
)

// Helpers that only the tests use.

// Eligible reports whether the classification is replication-eligible.
func (rs *ReplicationSet) Eligible(classification string) bool {
	return slices.Contains(rs.Classifications, classification)
}

// Component returns the grade for a classification id, or nil.
func (g *Grading) Component(classification string) *ComponentGrade {
	for i := range g.Components {
		if g.Components[i].Classification == classification {
			return &g.Components[i]
		}
	}
	return nil
}
