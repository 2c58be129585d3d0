package redoop

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The mutant table: bugs planted where the paper's rules live, each an
// expression of one function rewritten, the packages whose tests must
// catch it and, by name, the top-level tests that do. TestMutants checks
// on every run that each row's function exists, its rewrite applies and
// each test it names is still declared in its packages, so renaming a
// target or deleting a row's killer breaks the table loudly. With
// REDOOP_MUTANTS=1 it also runs the rows, one `go test` at a time: the
// row's file is replaced by its rewrite through an overlay, and every
// test the row names must fail. A row no test catches stays in the
// table as a known survivor, with why, until a test kills it; it is
// never deleted to make the run pass.
type mutant struct {
	name     string
	file     string // slash-separated, relative to the module root
	fn       string // the function or methods whose bodies hold from
	from, to string // an expression occurring once in them, and its replacement
	pkgs     []string
	by       []string // top-level tests of pkgs that each fail under the row
	survives string   // for a known survivor, which names no by: why no test catches it
}

var mutants = []mutant{{
	name: "a purge notice before every query is done",
	file: "internal/core/catalog.go", fn: "markDoneLocked",
	from: "slices.Contains(r.doneQueryMask, false)", to: "false",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestCatalogModel", "TestControllerPurgeNotification", "TestDoneMaskGrowsPastItsInlineBits"},
}, {
	name: "a lost cache keeps its ready bit (no §5 rollback 2→1)",
	file: "internal/core/catalog.go", fn: "acquire",
	from: "HDFSAvailable", to: "CacheAvailable",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestCatalogModel", "TestReadyBitRollback", "TestCommitExactlyOnce"},
}, {
	name: "the purge deletes a row a re-registration replaced",
	file: "internal/core/catalog.go", fn: "PurgeExpired",
	from: "cp.row != expiredRow", to: "false",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestCatalogModel", "TestPurgeSkipsReplacedRows"},
}, {
	name: "a re-homed cache leaves its old copy unexpired",
	file: "internal/core/catalog.go", fn: "placeLocked",
	from: "cur.NID != r.node.ID && cur.row == liveRow && old != nil", to: "false",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestCatalogModel", "TestControllerReRegisterPreservesOtherClaims", "TestPurgeNotificationReachesSiblingCopies"},
}, {
	name: "a new query's bit starts not done on existing caches",
	file: "internal/core/catalog.go", fn: "addQuery",
	from: "true", to: "false",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestCatalogModel", "TestDoneMaskGrowsPastItsInlineBits"},
}, {
	name: "an evicted cache keeps its ready bit (no §5 rollback 2→1)",
	file: "internal/core/catalog.go", fn: "Evict",
	from: "HDFSAvailable", to: "CacheAvailable",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestCatalogModel", "TestPurgeSkipsReplacedRows", "TestCommitExactlyOnce"},
}, {
	name: "a status matrix update marks the wrong entry",
	file: "internal/core/statusmatrix.go", fn: "Update",
	from: "m.index(coords)", to: "0",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestCatalogModel", "TestUpdateAndDone", "TestLadderGolden"},
}, {
	name: "a shift moves a dimension's base by one pane too few",
	file: "internal/core/statusmatrix.go", fn: "shiftDim",
	from: "window.PaneID(k)", to: "window.PaneID(k - 1)",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestCatalogModel", "TestShiftPaperFigure4", "TestExpiredRequiresWindowDeparture"},
}, {
	name: "ensurePane maps a pane whose reduce inputs are cached",
	file: "internal/core/engine.go", fn: "ensurePane",
	from: "!reused && !e.noReuse", to: "false",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestLadderGolden", "TestCrossQueryCacheSharing"},
}, {
	name: "Equation 4 ranks nodes by load alone, blind to C_task",
	file: "internal/core/scheduler.go", fn: "PickCacheTaskNode",
	from: "cost < bestCost", to: "load < bestLoad",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestPickCacheTaskNodePrefersCacheLocality", "TestPickCacheTaskNodeWeighsCacheSizeAgainstWait", "TestLadderGolden"},
}, {
	name: "a record lands in the sub-pane before its own",
	file: "internal/core/packer.go", fn: "cellOf",
	from: "(ts - start) * n / width", to: "(ts - start) * (n - 1) / width",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestSubPanePacking", "TestSubPaneAvailability", "TestFlushIdenticalAcrossWidths"},
}, {
	name: "a window closes without its source's offset on the shared cadence",
	file: "internal/window/frame.go", fn: "WindowClose",
	from: "f.Offset", to: "0",
	pkgs: []string{"./internal/window", "./internal/core"},
	by:   []string{"TestHeterogeneousFrames", "TestFrameAlignmentProperty", "TestHeterogeneousWindowJoin"},
}, {
	name: "the finalization merge leaves the window's newest pane out",
	file: "internal/core/agg.go", fn: "finalizeAggWindow",
	from: "p <= routs.hi", to: "p < routs.hi",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestEquivalenceAcrossSeeds", "TestLadderGolden"},
}, {
	name: "a derivation's digest skips its first byte",
	file: "internal/lineage/fingerprint.go", fn: "SHA",
	from: "sha256.Sum256(data)", to: "sha256.Sum256(data[1:])",
	pkgs: []string{"./internal/lineage"},
	by:   []string{"TestPairsHasherIsTheEncodedSegmentsSHA"},
}, {
	name: "the oracle passes a window that differs from its recomputation",
	file: "internal/oracle/oracle.go", fn: "Check",
	from: "bytes.Equal(records.EncodePairs(eng), records.EncodePairs(oc))", to: "true",
	pkgs: []string{"./internal/oracle"},
	by:   []string{"TestOracleCatchesBadRecovery"},
}, {
	name: "the oracle lets a cache drop from ready to not available",
	file: "internal/oracle/oracle.go", fn: "transition",
	from: "to < from && !(from == core.CacheAvailable && to == core.HDFSAvailable)", to: "false",
	pkgs: []string{"./internal/oracle"},
	by:   []string{"TestOracleFlagsIllegalTransition"},
}, {
	name: "the oracle misses a pane counted neither new nor reused",
	file: "internal/oracle/invariants.go", fn: "checkCoverage",
	from: "got != wantPanes", to: "false",
	pkgs: []string{"./internal/oracle"},
	by:   []string{"TestOracleFlagsEachInvariant"},
}, {
	name: "the oracle accepts a ready cache whose bytes are gone",
	file: "internal/oracle/invariants.go", fn: "checkMatrixAndCaches",
	from: "!reg.Has(pid, typ)", to: "false",
	pkgs: []string{"./internal/oracle"},
	by:   []string{"TestOracleFlagsPhantomCache"},
}, {
	name: "the oracle misses an expired cache still resident after the purge",
	file: "internal/oracle/invariants.go", fn: "checkRegistries",
	from: "e.Expired && resident", to: "false",
	pkgs: []string{"./internal/oracle"},
	by:   []string{"TestOracleFlagsEachInvariant"},
}, {
	name: "the oracle misses resident bytes with no signature",
	file: "internal/oracle/invariants.go", fn: "checkRegistries",
	from: "!e.Expired && resident", to: "false",
	pkgs: []string{"./internal/oracle"},
	by:   []string{"TestOracleFlagsEachInvariant"},
}, {
	name: "the oracle misses a header that places a pane elsewhere than the engine read it",
	file: "internal/oracle/invariants.go", fn: "checkHeaders",
	from: "e.Offset != pi.Input.Offset || e.Length != pi.Input.Length", to: "false",
	pkgs: []string{"./internal/oracle"},
	by:   []string{"TestOracleFlagsEachInvariant"},
}, {
	name: "Algorithm 1 packs one undersized pane too many into a block",
	file: "internal/core/analyzer.go", fn: "PlanFrame",
	from: "a.BlockSize / max(fileSize, 1)", to: "a.BlockSize/max(fileSize, 1) + 1",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestPackPlanRespectsBlockSize", "TestPlanUndersizedCase"},
}, {
	name: "an oversize pane goes to a shared file instead of its own",
	file: "internal/core/packer.go", fn: "flushPane",
	from: "p.plan.PanesPerFile <= 1 || sub > 1", to: "sub > 1",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestDropPaneFiles", "TestFlushIdenticalAcrossWidths", "TestLadderGolden"},
}, {
	name: "a shared file packs one undersized pane more than the plan says",
	file: "internal/core/packer.go", fn: "flushPane",
	from: "len(p.groupPanes) >= p.plan.PanesPerFile", to: "len(p.groupPanes) > p.plan.PanesPerFile",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestFlushIdenticalAcrossWidths"},
}, {
	name: "a shared file is named S#P<lo>_<lo>, not S#P<lo>_<hi>",
	file: "internal/core/packer.go", fn: "flushGroup",
	from: "int64(hi)", to: "int64(lo)",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestUndersizedMultiPaneFileWithHeader"},
}, {
	name: "a pane header with a gap between entries parses",
	file: "internal/core/packer.go", fn: "ParsePaneHeader",
	from: "e.Offset != next", to: "false",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestParsePaneHeaderRejections", "FuzzParsePaneHeader"},
}, {
	name: "Holt's forecast ignores its horizon (Equation 3)",
	file: "internal/forecast/forecast.go", fn: "Forecast",
	from: "float64(k) * h.trend", to: "h.trend",
	pkgs: []string{"./internal/forecast"},
	by:   []string{"TestLinearTrendForecastIsExact"},
}, {
	name: "Holt's level update drops the trend (Equation 1)",
	file: "internal/forecast/forecast.go", fn: "Observe",
	from: "(1 - h.alpha) * (h.level + h.trend)", to: "(1 - h.alpha) * h.level",
	pkgs: []string{"./internal/forecast", "./internal/core"},
	by:   []string{"TestLinearTrendForecastIsExact", "TestProfilerForecastAndHistory"},
}, {
	name: "the analyzer goes proactive only once the forecast overruns the slide",
	file: "internal/core/analyzer.go", fn: "Replan",
	from: "ratio > threshold", to: "ratio > 1",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestReplanBounds"},
}, {
	name: "a pair segment with a wrong checksum decodes",
	file: "internal/colfmt/colfmt.go", fn: "checkedColumns",
	from: "got != want", to: "false",
	pkgs: []string{"./internal/colfmt", "./internal/core"},
	by:   []string{"TestPairCorruptionsAreRejected", "TestDecodeRejectsCorruption", "TestCorruptPaneOutputFailsTheRecurrence"},
}, {
	name: "a record segment with a wrong checksum decodes",
	file: "internal/colfmt/colfmt.go", fn: "ViewRecords",
	from: "got != want", to: "false",
	pkgs: []string{"./internal/colfmt"},
	by:   []string{"TestDecodeRejectsCorruption"},
}, {
	name: "AppendDecodedPairs cuts pairs at decreasing offsets",
	file: "internal/colfmt/colfmt.go", fn: "appendChecked",
	from: "k1 < k0 || v1 < v0", to: "false",
	pkgs: []string{"./internal/colfmt"},
	by:   []string{"TestPairCorruptionsAreRejected"},
}, {
	name: "the baseline gives every source the first source's window",
	file: "internal/baseline/baseline.go", fn: "srcWindow",
	from: "d.query.Sources[src].Spec.Win", to: "d.query.Sources[0].Spec.Win",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestHeterogeneousWindowJoin", "TestRandomWindowGeometry"},
}, {
	name: "two plans with different reducers share a reuse fingerprint",
	file: "internal/lineage/fingerprint.go", fn: "opCanonical",
	from: "field(p.Reduce)", to: `field("")`,
	pkgs: []string{"./internal/lineage"},
	by:   []string{"TestOpFingerprintGeometryIndependent"},
}, {
	name: "a dead node keeps homing its reduce partition",
	file: "internal/core/scheduler.go", fn: "HomeNode",
	from: "n != nil && n.Alive()", to: "n != nil",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestHomeNodeReassignsOnDeath", "TestAggregationSurvivesNodeFailure"},
}, {
	name: "a new home ignores how many partitions a node already homes",
	file: "internal/core/scheduler.go", fn: "HomeNode",
	from: "counts[n.ID] < counts[best.ID]", to: "false",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestHomeNodeStableAndSpread"},
}, {
	name: "Equation 4 breaks a tie toward the higher node ID",
	file: "internal/core/scheduler.go", fn: "PickCacheTaskNode",
	from: "n.ID < best.ID", to: "n.ID > best.ID",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestPickCacheTaskNodeTieBreaksOnLowerID"},
}, {
	name: "eviction drops the densest cache first",
	file: "internal/account/account.go", fn: "CompareVictims",
	from: "cmp.Compare(a.density(), b.density())", to: "cmp.Compare(b.density(), a.density())",
	pkgs: []string{"./internal/account"},
	by:   []string{"TestRankVictimsPolicy", "TestRankVictimsBeatsExpiryROI"},
}, {
	name: "a shared source drops panes a slower consumer still reads",
	file: "internal/core/hub.go", fn: "release",
	from: "b < min", to: "false",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestHubGCWaitsForAllConsumers", "TestLadderGolden"},
}, {
	name: "a join tuple done in an earlier window is joined again",
	file: "internal/core/join.go", fn: "joinWindow",
	from: "done && !e.noReuse", to: "done && false",
	pkgs: []string{"./internal/core"},
	by:   []string{"TestJoinMatchesBaselineAcrossWindows", "TestThreeWayJoinMatchesBaseline", "TestLadderGolden"},
}, {
	name: "a pane expires while the current window still holds it",
	file: "internal/window/frame.go", fn: "ExpiredAfter",
	from: "p < lo", to: "p <= lo",
	pkgs: []string{"./internal/window", "./internal/core"},
	by:   []string{"TestFrameExpiredAfter", "TestExpiredRequiresWindowDeparture", "TestLadderGolden"},
}, {
	name: "a speculative attempt maps its split a second time",
	file: "internal/core/engine.go", fn: "preparePane",
	from: "e.mr.PrepareMapPhase(job, []mapreduce.Input{ins[i].Input})", to: "func() (*mapreduce.MapPhasePrep, error) { if e.mr.Speculative { if twice, err := e.mr.PrepareMapPhase(job, []mapreduce.Input{ins[i].Input}); err == nil { twice.Release() } }; return e.mr.PrepareMapPhase(job, []mapreduce.Input{ins[i].Input}) }()",
	pkgs:     []string{"./internal/core", "./internal/experiments"},
	survives: "the backup's second map is thrown away, so no answer, cache or virtual time changes; only a count of the user Map's calls per attempt can see it",
}}

// canonical returns an expression's source as go/format prints it.
func canonical(fset *token.FileSet, x ast.Expr) string {
	var b bytes.Buffer
	if err := format.Node(&b, fset, x); err != nil {
		return ""
	}
	return b.String()
}

// apply returns the module file m.file with m applied, formatted, or
// the reason it does not apply: the function is missing, or from does
// not occur in it exactly once.
func (m mutant) apply(root string) ([]byte, string) {
	src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(m.file)))
	if err != nil {
		return nil, err.Error()
	}
	want, err := parser.ParseExpr(m.from)
	if err != nil {
		return nil, "from: " + err.Error()
	}
	if _, err := parser.ParseExpr(m.to); err != nil {
		return nil, "to: " + err.Error()
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, m.file, src, parser.ParseComments)
	if err != nil {
		return nil, err.Error()
	}
	from := canonical(token.NewFileSet(), want)
	var fns []*ast.FuncDecl // a function and methods may share the name
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == m.fn && fd.Body != nil {
			fns = append(fns, fd)
		}
	}
	if fns == nil {
		return nil, "no function " + m.fn
	}
	var hits []ast.Expr
	for _, fn := range fns {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if x, ok := n.(ast.Expr); ok && canonical(fset, x) == from {
				hits = append(hits, x)
				return false
			}
			return true
		})
	}
	if len(hits) != 1 {
		return nil, fmt.Sprintf("%s occurs %d times in %s, want once", from, len(hits), m.fn)
	}
	lo, hi := fset.Position(hits[0].Pos()).Offset, fset.Position(hits[0].End()).Offset
	out := append(append(append([]byte(nil), src[:lo]...), "("+m.to+")"...), src[hi:]...)
	if out, err = format.Source(out); err != nil {
		return nil, "rewritten file: " + err.Error()
	}
	return out, ""
}

// goTest runs go test with args in the module, its files replaced as
// overlay (a go build -overlay file) says, and reports whether it passed.
func goTest(t *testing.T, overlay string, args ...string) (bool, string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"test", "-count=1", "-overlay=" + overlay}, args...)...)
	cmd.Env = append(os.Environ(), "REDOOP_MUTANTS=") // a row's tests run no mutants
	out, err := cmd.CombinedOutput()
	return err == nil, string(out)
}

// testNames caches, per package directory, the top-level functions its
// test files declare: many rows name the same packages.
var testNames = map[string]map[string]bool{}

// declared returns the top-level functions the test files of the
// package in dir declare.
func declared(dir string) (map[string]bool, error) {
	if names, ok := testNames[dir]; ok {
		return names, nil
	}
	names := map[string]bool{}
	paths, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	for _, path := range paths {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				names[fd.Name.Name] = true
			}
		}
	}
	testNames[dir] = names
	return names, nil
}

// missingKillers returns the tests of m.by that no test file of m.pkgs
// under root declares as a top-level function, and why the row is
// malformed: it names no killer and no reason it survives, or both.
func (m mutant) missingKillers(root string) (missing []string, why string) {
	if (len(m.by) == 0) == (m.survives == "") {
		return nil, "a row names its killers (by) or why it survives, not both or neither"
	}
	var all []map[string]bool
	for _, pkg := range m.pkgs {
		names, err := declared(filepath.Join(root, filepath.FromSlash(pkg)))
		if err != nil {
			return nil, err.Error()
		}
		all = append(all, names)
	}
	for _, name := range m.by {
		if !slices.ContainsFunc(all, func(names map[string]bool) bool { return names[name] }) {
			missing = append(missing, name)
		}
	}
	return missing, ""
}

// TestMutants checks the mutant table; REDOOP_MUTANTS=1 runs it (about
// two minutes: one go test of each row's killers, or of a survivor's
// packages whole).
func TestMutants(t *testing.T) {
	mode := os.Getenv("REDOOP_MUTANTS")
	t.Run("planted_row_with_a_missing_killer", func(t *testing.T) {
		m := mutants[0]
		m.by = append(slices.Clip(m.by), "TestNoSuchKiller")
		if missing, _ := m.missingKillers("."); !slices.Equal(missing, []string{"TestNoSuchKiller"}) {
			t.Errorf("a row naming TestNoSuchKiller reports missing %v", missing)
		}
	})
	for _, m := range mutants {
		t.Run(strings.ReplaceAll(m.name, " ", "_"), func(t *testing.T) {
			src, why := m.apply(".")
			if why != "" {
				t.Fatalf("%s (%s): %s", m.file, m.fn, why)
			}
			// A row that names no killers yet fails tier-1, and its run
			// lists the tests that kill it, to choose its by from.
			if missing, why := m.missingKillers("."); len(missing) > 0 || why != "" && mode != "1" {
				t.Fatalf("%s %v: killers not declared in %v", why, missing, m.pkgs)
			}
			if mode != "1" {
				return
			}
			// The row is planted by an overlay, not in a copy of the
			// module, so the build cache serves every package but the
			// row's and those that import it.
			dir := t.TempDir()
			mutated, overlay := filepath.Join(dir, filepath.Base(m.file)), filepath.Join(dir, "overlay.json")
			abs, err := filepath.Abs(filepath.FromSlash(m.file))
			if err != nil {
				t.Fatal(err)
			}
			replace, _ := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
			if err := errors.Join(os.WriteFile(mutated, src, 0o644), os.WriteFile(overlay, replace, 0o644)); err != nil {
				t.Fatal(err)
			}
			if ok, out := goTest(t, overlay, append([]string{"-run", "^$"}, m.pkgs...)...); !ok {
				t.Fatalf("the mutant does not build:\n%s", out)
			}
			args := m.pkgs
			if len(m.by) > 0 {
				args = append([]string{"-run", "^(" + strings.Join(m.by, "|") + ")$"}, m.pkgs...)
			}
			passed, out := goTest(t, overlay, args...)
			failed := failures(out)
			switch {
			case passed && m.survives != "":
				t.Logf("known survivor: %s", m.survives)
			case passed:
				t.Errorf("survives: no test of %v catches it", m.pkgs)
			case m.survives != "":
				t.Errorf("marked a survivor (%s), but these tests of %v now catch it: %v", m.survives, m.pkgs, failed)
			case len(m.by) == 0:
				t.Errorf("names no killers; these tests of %v kill it: %v", m.pkgs, failed)
			default:
				for _, name := range m.by {
					if !slices.Contains(failed, name) {
						t.Errorf("%s does not catch it", name)
					}
				}
				t.Logf("killed by: %v", failed)
			}
		})
	}
}

// failures returns the top-level tests go test output out reports
// failed, sorted.
func failures(out string) []string {
	var names []string
	for _, line := range strings.Split(out, "\n") {
		if name, ok := strings.CutPrefix(line, "--- FAIL: "); ok {
			name, _, _ = strings.Cut(name, " ")
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}
