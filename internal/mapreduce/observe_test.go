package mapreduce

import (
	"strconv"
	"testing"

	"redoop/internal/obs"
)

// observedRig is a test rig with an observer attached and n one-block
// input files of distinct words, enough keys to fill 20 partitions.
func observedRig(t *testing.T, n int) (*Engine, []string) {
	t.Helper()
	e := testRig(t, 3)
	e.Obs = obs.New()
	vocab := make([]string, 200)
	for i := range vocab {
		vocab[i] = "w" + strconv.Itoa(i)
	}
	paths := make([]string, n)
	for i := range paths {
		paths[i] = "/in/" + strconv.Itoa(i)
		writeWords(t, e, paths[i], vocab, len(vocab))
	}
	return e, paths
}

// commitAllocs is what one more call of commit allocates, on average,
// once a first call has resolved the metric series it touches.
func commitAllocs(t *testing.T, commit func() error) float64 {
	t.Helper()
	check(t, commit())
	return testing.AllocsPerRun(50, func() {
		if err := commit(); err != nil {
			t.Fatal(err)
		}
	})
}

// An observed phase's commit records its attempts as facts, formatting
// nothing: a map phase of 64 splits allocates what one of a single split
// does, and a reduce phase of 20 partitions what one of a single
// partition does. The one allocation of slack is the tracer's open
// segment growing, which is amortized over the runs.
func TestObservedCommitAllocatesPerPhase(t *testing.T) {
	mapPhase := func(splits int) float64 {
		e, paths := observedRig(t, splits)
		prep, err := e.PrepareMapPhase(wordCountJob(paths, 4), WholeFiles(paths))
		check(t, err)
		if len(prep.splits) != splits {
			t.Fatalf("%d splits, want %d", len(prep.splits), splits)
		}
		// Released, the prep's commit schedules its tasks over empty
		// partitions, so it can be committed again and again.
		prep.Release()
		return commitAllocs(t, func() error {
			_, err := e.CommitMapPhase(prep, 0)
			return err
		})
	}
	if one, many := mapPhase(1), mapPhase(64); many > one+1 {
		t.Errorf("committing 64 observed map tasks allocates %v times, one %v", many, one)
	}

	reducePhase := func(parts int) float64 {
		e, paths := observedRig(t, 1)
		job := wordCountJob(paths, parts)
		mp, err := e.RunMapPhase(job, WholeFiles(paths), 0)
		check(t, err)
		results, _, err := e.RunReducePhase(job, mp, 0)
		check(t, err)
		if len(results) != parts {
			t.Fatalf("%d reducers, want %d", len(results), parts)
		}
		return commitAllocs(t, func() error {
			_, _, err := e.CommitReducePhase(job, results, mp, 0)
			return err
		})
	}
	if one, many := reducePhase(1), reducePhase(20); many > one+1 {
		t.Errorf("committing 20 observed reduce tasks allocates %v times, one %v", many, one)
	}
}
