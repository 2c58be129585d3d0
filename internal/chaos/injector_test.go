package chaos_test

import (
	"testing"

	"redoop/internal/chaos"
	"redoop/internal/core"
	"redoop/internal/experiments"
	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
	"redoop/internal/queries"
	"redoop/internal/simtime"
	"redoop/internal/workload"
)

// TestCrashStampedAtSharedTrigger: a recurrence of a join whose sources
// carry different windows triggers when the largest window has filled
// (window.Frame), so a scheduled crash is stamped at that shared
// trigger, not where source 0's smaller window would close on its own.
func TestCrashStampedAtSharedTrigger(t *testing.T) {
	slide := 10 * simtime.Second
	q := queries.FFGJoin("hj", 30*simtime.Second, slide, 2)
	q.Sources[0].Spec.Win = int64(20 * simtime.Second)
	frames, err := q.Frames()
	if err != nil {
		t.Fatal(err)
	}
	mr := experiments.Default().NewRuntime(1)
	mr.Obs = obs.New()
	eng, err := core.NewEngine(core.Config{MR: mr, Query: q})
	if err != nil {
		t.Fatal(err)
	}
	const crashAt = 1
	sched := &chaos.Schedule{Seed: 1, Profile: chaos.ProfileCrash,
		Actions: []chaos.Action{{Recurrence: crashAt, Kind: chaos.NodeCrash, Node: 3}}}
	in := chaos.NewInjector(sched, mr)
	ingest := in.WrapIngest(eng, eng.Ingest)
	ffg := workload.DefaultFFG(7)
	fed := int64(0)
	for r := 0; r <= crashAt; r++ {
		for ; fed < frames[0].WindowClose(r); fed += int64(slide) {
			if err := ingest(0, workload.FFGReadings(ffg, fed, fed+int64(slide), 60)); err != nil {
				t.Fatal(err)
			}
			if err := ingest(1, workload.FFGEvents(ffg, fed, fed+int64(slide), 20)); err != nil {
				t.Fatal(err)
			}
		}
		if err := in.BeforeRecurrence(r, eng, ingest); err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunNext()
		if err != nil {
			t.Fatalf("recurrence %d: %v", r, err)
		}
		if r != crashAt {
			continue
		}
		var faults []eventlog.Event
		for _, e := range mr.Obs.Decisions() {
			if e.Type == eventlog.Fault {
				faults = append(faults, e)
			}
		}
		if len(faults) != 1 || faults[0].Data.(eventlog.FaultData).Kind != string(chaos.NodeCrash) {
			t.Fatalf("faults = %+v, want one %s", faults, chaos.NodeCrash)
		}
		if got := faults[0].At; got != res.TriggerAt {
			t.Errorf("crash stamped at %v, want the recurrence's trigger %v", got, res.TriggerAt)
		}
	}
}
