package mapreduce

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"redoop/internal/obs"
)

// jitterizeStragglers configures the engine so every attempt is a
// straggler, guaranteeing the speculative-execution path triggers.
func jitterizeStragglers(e *Engine) {
	e.Jitter = 0.1
	e.StragglerProb = 0.99
	e.StragglerFactor = 6
	e.JitterSeed = 7
	e.Speculative = true
}

// When the straggler's node is the only alive node, placeBackup has
// nowhere to schedule a backup; the engine must fall back to the
// original attempt instead of dereferencing a nil node.
func TestSpeculationSingleAliveNodeFallsBack(t *testing.T) {
	e := testRig(t, 3)
	want := writeWords(t, e, "/in", []string{"a", "b"}, 1500)
	e.Cluster.FailNode(1)
	e.Cluster.FailNode(2)
	jitterizeStragglers(e)

	res, err := e.Run(wordCountJob([]string{"/in"}, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := outputCounts(t, res.Output)
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%s] = %d, want %d", w, got[w], n)
		}
	}

	// With no second node the outcome must match a non-speculative run
	// exactly: the original attempt stands, nothing else is charged.
	e2 := testRig(t, 3)
	writeWords(t, e2, "/in", []string{"a", "b"}, 1500)
	e2.Cluster.FailNode(1)
	e2.Cluster.FailNode(2)
	jitterizeStragglers(e2)
	e2.Speculative = false
	res2, err := e2.Run(wordCountJob([]string{"/in"}, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != res2.Stats {
		t.Errorf("single-alive-node speculation must be a no-op:\n spec: %+v\nplain: %+v", res.Stats, res2.Stats)
	}
}

// With a second node alive, speculation still launches backups (the
// fallback must not have disabled the feature): backups consume extra
// slot time, so total map time exceeds the non-speculative run's.
func TestSpeculationStillRunsWithTwoNodes(t *testing.T) {
	run := func(spec bool) Stats {
		e := testRig(t, 2)
		writeWords(t, e, "/in", []string{"a", "b"}, 1500)
		jitterizeStragglers(e)
		e.Speculative = spec
		res, err := e.Run(wordCountJob([]string{"/in"}, 2), 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	if spec, plain := run(true), run(false); spec.MapTime <= plain.MapTime {
		t.Errorf("speculative backups should add map slot time: %v vs %v", spec.MapTime, plain.MapTime)
	}
}

// Workers=1 and a wide worker pool must produce byte-identical output,
// identical Stats, and the same virtual end time.
func TestSerialParallelEquivalence(t *testing.T) {
	run := func(workers int) (*Result, error) {
		e := testRig(t, 4)
		e.Workers = workers
		jitterizeStragglers(e)
		e.Faults = FailFirstAttempts{N: 2}
		writeWords(t, e, "/in", []string{"a", "b", "c", "d"}, 4000)
		job := wordCountJob([]string{"/in"}, 3)
		job.Combine = job.Reduce
		return e.Run(job, 0)
	}
	serial, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Stats, par.Stats) {
		t.Errorf("stats diverge:\nserial:   %+v\nparallel: %+v", serial.Stats, par.Stats)
	}
	if serial.Stats.End != par.Stats.End {
		t.Errorf("virtual end times diverge: %v vs %v", serial.Stats.End, par.Stats.End)
	}
	if len(serial.Output) != len(par.Output) {
		t.Fatalf("output sizes diverge: %d vs %d", len(serial.Output), len(par.Output))
	}
	for i := range serial.Output {
		if !bytes.Equal(serial.Output[i].Key, par.Output[i].Key) ||
			!bytes.Equal(serial.Output[i].Value, par.Output[i].Value) {
			t.Fatalf("output pair %d diverges", i)
		}
	}
	if len(serial.Reducers) != len(par.Reducers) {
		t.Fatalf("reducer counts diverge: %d vs %d", len(serial.Reducers), len(par.Reducers))
	}
	for i := range serial.Reducers {
		s, p := serial.Reducers[i], par.Reducers[i]
		if s.Part != p.Part || s.Node != p.Node || s.Start != p.Start || s.End != p.End {
			t.Errorf("reducer %d schedule diverges: %+v vs %+v", i, s, p)
		}
	}
}

// WorkerCount resolves the default and explicit settings.
func TestWorkerCount(t *testing.T) {
	e := testRig(t, 2)
	if e.WorkerCount() < 1 {
		t.Errorf("default WorkerCount = %d, want >= 1", e.WorkerCount())
	}
	e.Workers = 3
	if e.WorkerCount() != 3 {
		t.Errorf("WorkerCount = %d, want 3", e.WorkerCount())
	}
}

// TestEveryAttemptSpanNamesItsJobAndAttempt: a failed attempt, a
// winning one and a speculative backup each leave a span labelled with
// the job and the attempt number, so the trace alone says which job's
// which attempt ran where.
func TestEveryAttemptSpanNamesItsJobAndAttempt(t *testing.T) {
	e := testRig(t, 3)
	writeWords(t, e, "/in", []string{"a", "b"}, 1500)
	jitterizeStragglers(e)
	e.Faults = FailFirstAttempts{N: 1}
	e.Obs = obs.New()
	job := wordCountJob([]string{"/in"}, 2)
	if _, err := e.Run(job, 0); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, ev := range e.Obs.Events() {
		if ev.Cat != "map" && ev.Cat != "reduce" {
			continue
		}
		labels := map[string]string{}
		for _, l := range ev.Args {
			labels[l.Key] = l.Value
		}
		if labels["job"] != job.Name || labels["attempt"] == "" {
			t.Errorf("%s span %q labelled %v, want job %q and an attempt", ev.Cat, ev.Name, labels, job.Name)
		}
		kind := ev.Cat
		switch {
		case labels["result"] == "failed":
			kind += " failed"
		case strings.HasPrefix(ev.Name, "backup "):
			kind += " backup"
		}
		seen[kind]++
	}
	for _, kind := range []string{"map", "map failed", "map backup", "reduce", "reduce failed"} {
		if seen[kind] == 0 {
			t.Errorf("no %s span recorded: %v", kind, seen)
		}
	}
}
