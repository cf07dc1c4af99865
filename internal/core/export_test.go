package core

import "tweeql/internal/catalog"

// Ablation is the engine's test-only switch set; its zero value is
// production.
type Ablation = ablation

// NewAblatedEngine is NewEngine with the mechanisms abl names switched
// back to the paths they replaced.
func NewAblatedEngine(cat *catalog.Catalog, opts Options, abl Ablation) *Engine {
	return newEngine(cat, opts, abl)
}
