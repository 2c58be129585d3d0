package core

import (
	"fmt"

	"redoop/internal/mapreduce"
	"redoop/internal/records"
)

// FinalizeCaches stores data[part][i], partition part's partial outputs
// in window order, as reduce-output caches spread over the engine's nodes
// and runs the window's finalization merge over them.
func FinalizeCaches(e *Engine, data [][][]byte) ([]records.Pair, mapreduce.Stats, error) {
	nodes := e.mr.Cluster.NodeIDs()
	caches := make([][]cacheRef, len(data))
	for part, segs := range data {
		for i, seg := range segs {
			pid := fmt.Sprintf("finalize-test/p%d/c%d", part, i)
			caches[part] = append(caches[part], e.registerCache(newRecord([]byte(pid), ReduceOutput), nodes[(part+i)%len(nodes)], 0, seg, cacheMeta{}))
		}
	}
	var stats mapreduce.Stats
	out, err := e.finalizeMerged(caches, 0, &stats)
	return out, stats, err
}

// OpFingerprint is e's geometry-independent operator fingerprint, the
// reuse index's matching key.
func OpFingerprint(e *Engine) string { return e.opFP }

// Check is check, for the package's black-box tests.
var Check = check
