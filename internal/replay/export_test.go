package replay

import "spirvfuzz/internal/fuzz"

// OnInsert makes e call f on every snapshot context it stores. Set it
// before the engine's first query.
func OnInsert(e *Engine, f func(*fuzz.Context)) { e.inserted = f }
