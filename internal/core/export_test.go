package core

// RunAsLowered is Engine.run for the tests outside the package: the plan
// over the pin exactly as cut, with no one-step-per-pass fallback.
var RunAsLowered = (*Engine).run

// Catalog is the catalog the engine was made with.
func (e *Engine) Catalog() *Catalog { return e.cat }
