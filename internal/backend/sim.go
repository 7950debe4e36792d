package backend

import "lambdatune/internal/engine"

// Sim is the engine simulator (engine.DB) as a Backend, the one Open builds.
// Every contract method but Snapshot is the engine's own, promoted; so are
// its extras beyond the contract — raw settings access, the execution hook
// and the permanent-index count — which serve scenario setup, studies and
// tests.
type Sim struct{ *engine.DB }

// NewSim creates a simulator backend with default settings and no indexes.
func NewSim(f engine.Flavor, catalog *engine.Catalog, hw engine.Hardware) *Sim {
	return &Sim{engine.NewDB(f, catalog, hw)}
}

// Snapshot returns an independent replica for parallel candidate evaluation.
func (s *Sim) Snapshot() Backend { return &Sim{s.DB.Snapshot()} }
