// Package core implements Redoop itself: the window-aware extensions
// layered on the MapReduce runtime — the Semantic Analyzer and Dynamic
// Data Packer (paper §3), the Execution Profiler and adaptive
// partitioning (§3.3), the local cache registries, window-aware cache
// controller and cache status matrices (§4.1–4.2), the cache-aware task
// scheduler (§4.3), the incremental recurring-query engine (§2.3, §5)
// and its failure recovery (§5).
package core

import (
	"fmt"
	"time"

	"redoop/internal/forecast"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// PartitionPlan is the Semantic Analyzer's output (paper Algorithm 1):
// how one data source's arriving records are physically packed into
// pane files in HDFS.
type PartitionPlan struct {
	// PaneUnit is the logical pane size in window units:
	// GCD(win, slide), possibly divided by SubPanes under adaptation.
	PaneUnit int64
	// FilesPerPane is 1 in both of Algorithm 1's cases (kept explicit
	// because the plan triple in the paper is (pane, files, panes)).
	FilesPerPane int
	// PanesPerFile is 1 in the oversize case (one pane = one physical
	// file) and >1 in the undersized case (one file packs several
	// panes, with a header locating them).
	PanesPerFile int
	// SubPanes is the adaptive subdivision factor: 1 normally, >1 when
	// the analyzer has switched the query to finer sub-pane
	// granularity to absorb a load spike (§3.3). Each logical pane is
	// then packed as SubPanes separate physical units that can be
	// processed proactively as they arrive.
	SubPanes int
	// ExpectedFileBytes is rate × pane, the file size estimate the
	// oversize/undersized decision was made on.
	ExpectedFileBytes int64
}

// String formats the plan triple like the paper's PP = (pane, f, n).
func (p PartitionPlan) String() string {
	return fmt.Sprintf("PP=(pane=%d, files=%d, panes/file=%d, subpanes=%d)",
		p.PaneUnit, p.FilesPerPane, p.PanesPerFile, p.SubPanes)
}

// Validate reports malformed plans.
func (p PartitionPlan) Validate() error {
	if p.PaneUnit <= 0 {
		return fmt.Errorf("core: plan pane unit must be positive, got %d", p.PaneUnit)
	}
	if p.FilesPerPane != 1 {
		return fmt.Errorf("core: plan must map each pane to one file, got %d", p.FilesPerPane)
	}
	if p.PanesPerFile < 1 {
		return fmt.Errorf("core: panes per file must be >= 1, got %d", p.PanesPerFile)
	}
	if p.SubPanes < 1 {
		return fmt.Errorf("core: sub-pane factor must be >= 1, got %d", p.SubPanes)
	}
	return nil
}

// Analyzer is the Semantic Analyzer: given a query's window constraints,
// data-source statistics from the Execution Profiler and the HDFS block
// size, it produces the partition plan the Dynamic Data Packer executes,
// and re-plans adaptively when the profiler forecasts that executions
// will overrun the slide deadline.
type Analyzer struct {
	// BlockSize is the HDFS block size the oversize/undersized
	// decision compares against (paper: default 64 MB).
	BlockSize int64
	// SpikeThreshold is the fraction of the slide deadline the
	// forecast execution time must exceed before the analyzer
	// subdivides panes. The default 0.75 switches to best-effort
	// proactive execution with a safety margin *before* executions
	// actually overrun the deadline, since by then the backlog has
	// already formed.
	SpikeThreshold float64
	// MaxSubPanes caps adaptive subdivision so the system does not
	// create "too many small sub-panes" (§3.3). Default 8.
	MaxSubPanes int
}

// NewAnalyzer returns an analyzer for the given block size with default
// adaptation parameters.
func NewAnalyzer(blockSize int64) (*Analyzer, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("core: block size must be positive, got %d", blockSize)
	}
	return &Analyzer{BlockSize: blockSize, SpikeThreshold: 0.75, MaxSubPanes: 8}, nil
}

// PlanFrame implements Algorithm 1 for one source. f is the source's
// window frame, whose pane unit is line 1's GCD (refined for
// heterogeneous windows on a shared slide, see window.Frame), and
// rateBytesPerUnit the source's observed arrival rate in bytes per
// window unit (bytes per nanosecond for time-based windows, bytes per
// record for count-based ones). Lines 2-8 estimate the pane file size
// and choose the oversize (one pane per file) or undersized (several
// panes per file) representation against the block size.
func (a *Analyzer) PlanFrame(f window.Frame, rateBytesPerUnit float64) (PartitionPlan, error) {
	if err := f.Spec.Validate(); err != nil {
		return PartitionPlan{}, err
	}
	if rateBytesPerUnit < 0 {
		return PartitionPlan{}, fmt.Errorf("core: negative arrival rate %v", rateBytesPerUnit)
	}
	fileSize := int64(rateBytesPerUnit * float64(f.Pane)) // line 2: filesize <- rate * pane
	plan := PartitionPlan{PaneUnit: f.Pane, FilesPerPane: 1, PanesPerFile: 1, SubPanes: 1, ExpectedFileBytes: fileSize}
	// Oversize: one file for one pane. An unknown rate (0) cannot size
	// files either, so it also gets one pane per file until the
	// profiler learns better. Undersized: pack panes.
	if fileSize < a.BlockSize && rateBytesPerUnit > 0 {
		plan.PanesPerFile = int(a.BlockSize / max(fileSize, 1))
	}
	return plan, nil
}

// Replan applies the adaptive strategy of §3.3 to an existing plan:
// given the profiler's forecast for the next recurrence and the slide
// deadline, it returns the plan to use next and whether the engine
// should run in proactive mode. A forecast overrunning the deadline by
// more than SpikeThreshold subdivides panes by the overrun ratio
// (capped at MaxSubPanes); a forecast comfortably under the deadline
// reverts to whole panes.
func (a *Analyzer) Replan(plan PartitionPlan, forecastExec, deadline simtime.Duration) (PartitionPlan, bool) {
	threshold := a.SpikeThreshold
	if threshold <= 0 {
		threshold = 0.75
	}
	maxSub := a.MaxSubPanes
	if maxSub < 1 {
		maxSub = 8
	}
	if deadline <= 0 {
		return plan, plan.SubPanes > 1
	}
	ratio := float64(forecastExec) / float64(deadline)
	switch {
	case ratio > threshold:
		// Scale the pane granularity by the overrun factor so
		// sub-panes populate fast enough to process proactively.
		sub := int(ratio + 0.999)
		if sub < 2 {
			sub = 2
		}
		if sub > maxSub {
			sub = maxSub
		}
		plan.SubPanes = sub
		return plan, true
	case ratio < 0.5*threshold && plan.SubPanes > 1:
		// Load subsided: return to whole panes (hysteresis at half
		// the trigger point avoids plan thrash).
		plan.SubPanes = 1
		return plan, false
	default:
		return plan, plan.SubPanes > 1
	}
}

// Profiler is the Execution Profiler (paper §3.3): it collects per-
// recurrence execution statistics and predicts the next recurrence's
// execution time with Holt double exponential smoothing, feeding the
// Semantic Analyzer's adaptive re-planning.
type Profiler struct {
	holt *forecast.Holt
	// history rings the newest historyLen observations; once it is full,
	// next is the slot the next observation overwrites (the oldest).
	history []Observation
	next    int
}

// historyLen bounds History, so a query that recurs forever keeps
// constant memory. The forecast reads none of it.
const historyLen = 256

// Observation is one recurrence's execution record.
type Observation struct {
	Recurrence int
	Exec       simtime.Duration
	InputBytes int64
}

// DefaultAlpha and DefaultBeta are the profiler's smoothing parameters;
// the paper selects them by fitting historical data.
const (
	DefaultAlpha = 0.5
	DefaultBeta  = 0.3
)

// NewProfiler returns a profiler with the given smoothing parameters
// (pass DefaultAlpha/DefaultBeta when in doubt).
func NewProfiler(alpha, beta float64) (*Profiler, error) {
	h, err := forecast.NewHolt(alpha, beta)
	if err != nil {
		return nil, err
	}
	return &Profiler{holt: h}, nil
}

// Observe records recurrence r's execution time and input volume.
func (p *Profiler) Observe(r int, exec simtime.Duration, inputBytes int64) {
	p.holt.Observe(float64(exec))
	o := Observation{Recurrence: r, Exec: exec, InputBytes: inputBytes}
	if len(p.history) < historyLen {
		p.history = append(p.history, o)
		return
	}
	p.history[p.next] = o
	p.next = (p.next + 1) % historyLen
}

// Forecast predicts the execution time k recurrences ahead (Equation 3).
func (p *Profiler) Forecast(k int) simtime.Duration {
	return time.Duration(p.holt.Forecast(k))
}

// Ready reports whether enough recurrences have been observed for the
// forecast to drive adaptation decisions.
func (p *Profiler) Ready() bool { return p.holt.Ready() }

// History returns the newest historyLen observations, oldest first.
func (p *Profiler) History() []Observation {
	return append(append([]Observation(nil), p.history[p.next:]...), p.history[:p.next]...)
}

// Reset clears the profiler; the engine resets it when the partition
// plan changes granularity, since old execution times no longer predict
// the new plan's behaviour.
func (p *Profiler) Reset() {
	p.holt.Reset()
	p.history, p.next = nil, 0
}
