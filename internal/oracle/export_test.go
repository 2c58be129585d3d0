package oracle

import "redoop/internal/core"

// Transition reports a ready-state change to o as the catalog's hook
// does: no code path of the catalog downgrades a cache illegally, so a
// test plants one here.
func (o *Oracle) Transition(pid string, typ core.CacheType, from, to core.Ready) {
	o.transition(pid, typ, from, to)
}
