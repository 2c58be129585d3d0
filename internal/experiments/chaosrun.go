package experiments

// Chaos verification runs: one Redoop series per regime under a
// deterministic fault schedule with the differential oracle enabled.
// This is the workload behind the CI soak matrix and the regression
// tests — a figure-independent way to say "run the engine through a
// storm and prove every window's answer".

import (
	"fmt"

	"redoop/internal/chaos"
	"redoop/internal/oracle"
)

// ChaosRegimes lists the engine regimes the soak matrix verifies:
// pane aggregation, the binary join, adaptive re-planning, speculative
// execution, and the cross-query reuse trio over one shared hub (exact
// reuse, and a roll-up whose panes are several segments).
var ChaosRegimes = []string{"agg", "join", "adaptive", "speculative", "shared-hub"}

// ProfileForRegime pairs a regime with the chaos profile that
// exercises it: the speculative regime needs the straggler/speculation
// profile (speculation never triggers without jitter); everything else
// gets the full mixed storm.
func ProfileForRegime(regime string) string {
	if regime == "speculative" {
		return chaos.ProfileSpeculative
	}
	return chaos.ProfileMixed
}

// RunChaosRegime runs one regime's Redoop series under c.Chaos with
// the oracle enabled and returns every per-recurrence verdict, one per
// query per window. The returned error is non-nil when any window
// diverged or violated an invariant (the first failure aborts the
// series).
func (c Config) RunChaosRegime(regime string) ([]oracle.Verdict, error) {
	c = c.withDefaults()
	var verdicts []oracle.Verdict
	prev := c.OnVerdict
	c.OracleCheck = true
	c.OnVerdict = func(system string, v oracle.Verdict) {
		verdicts = append(verdicts, v)
		if prev != nil {
			prev(system, v)
		}
	}
	// The fixed verification workload of the regime, at the configured
	// scale. Overlap 0.75 keeps several panes shared between
	// consecutive windows, so cache reuse — the thing chaos attacks —
	// is always in play.
	const overlap = 0.75
	var spec runSpec
	switch regime {
	case "agg", "adaptive", "speculative":
		spec = c.aggSpec("qchaos", overlap)
		spec.adaptive = regime == "adaptive"
	case "join":
		spec = c.joinSpec("qchaosj", overlap)
	case "shared-hub":
		_, err := c.crossQueryReuse(true, nil)
		return verdicts, err
	default:
		return nil, fmt.Errorf("experiments: unknown chaos regime %q (want one of %v)", regime, ChaosRegimes)
	}
	_, err := c.series(spec, redoop("Redoop/"+regime))
	return verdicts, err
}
