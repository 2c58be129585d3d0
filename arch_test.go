package redoop

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The design's rules that hold by construction, not by a test of
// behaviour: each is written once, and a second copy of it would
// compile and pass every other test. TestArchitecture checks each rule
// over the module's source and over a planted violation it must reject.
// The rules read declarations, imports, identifiers, string literals and
// call sites with their enclosing function, never comments, so prose may
// name what code may not do.

// srcFile is one file a rule reads: a Go file, parsed without its
// comments, or a workflow's text.
type srcFile struct {
	path string // slash-separated, relative to the module root
	src  string
	ast  *ast.File // nil for a workflow
}

// srcTree is the files the rules read, by path: every Go file of the
// module (tests and benchmark/ included; each rule says which it
// reads) and every workflow, but not .bench_build/, benchmark/run.sh's
// build cache, nor this file, whose fixtures are violations.
type srcTree map[string]*srcFile

var archFset = token.NewFileSet()

func parseSrc(p, src string) (*srcFile, error) {
	f := &srcFile{path: p, src: src}
	if strings.HasSuffix(p, ".go") {
		var err error
		if f.ast, err = parser.ParseFile(archFset, p, src, parser.SkipObjectResolution); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func loadTree(t *testing.T) srcTree {
	t.Helper()
	tr := srcTree{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (p == ".bench_build" || p == ".git"):
			return fs.SkipDir
		case d.IsDir() || p == "arch_test.go" || !(strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".yml")):
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		tr[p], err = parseSrc(p, string(b))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// with returns tr with one file added or replaced.
func (tr srcTree) with(f *srcFile) srcTree {
	out := make(srcTree, len(tr)+1)
	for p, g := range tr {
		out[p] = g
	}
	out[f.path] = f
	return out
}

// goFiles returns tr's Go files that keep says to read, in path order.
func (tr srcTree) goFiles(keep func(p string) bool) []*srcFile {
	var out []*srcFile
	for p, f := range tr {
		if f.ast != nil && keep(p) {
			out = append(out, f)
		}
	}
	slices.SortFunc(out, func(a, b *srcFile) int { return strings.Compare(a.path, b.path) })
	return out
}

// The file filters the rules combine.
func isTest(p string) bool     { return strings.HasSuffix(p, "_test.go") }
func inDir(p, dir string) bool { return path.Dir(p) == dir }
func under(p, dir string) bool { return strings.HasPrefix(p, dir+"/") }
func program(p string) bool    { return !isTest(p) && !under(p, "benchmark") }
func nonTestIn(dirs ...string) func(string) bool {
	return func(p string) bool {
		return !isTest(p) && slices.ContainsFunc(dirs, func(d string) bool { return under(p, d) })
	}
}

// at formats a violation at pos.
func at(pos token.Pos, format string, args ...any) string {
	p := archFset.Position(pos)
	return fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...))
}

// isMethod reports whether fd is a method named one of names.
func isMethod(fd *ast.FuncDecl, names ...string) bool {
	return fd != nil && fd.Recv != nil && slices.Contains(names, fd.Name.Name)
}

// recvType returns the type name of fd's receiver, "" for a function.
func recvType(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ""
	}
	x := fd.Recv.List[0].Type
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// strLit returns n's value when it is a string literal.
func strLit(n ast.Node) (string, bool) {
	if b, ok := n.(*ast.BasicLit); ok && b.Kind == token.STRING {
		s, err := strconv.Unquote(b.Value)
		return s, err == nil
	}
	return "", false
}

// calleeName returns the name a call or reference resolves by: the
// identifier itself, or a selector's selected name.
func calleeName(n ast.Node) string {
	switch x := n.(type) {
	case *ast.CallExpr:
		return calleeName(x.Fun)
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// isPkgSel reports whether n is the selector pkg.name.
func isPkgSel(n ast.Node, pkg, name string) bool {
	s, ok := n.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := s.X.(*ast.Ident)
	return ok && id.Name == pkg && s.Sel.Name == name
}

// pathLits returns each string literal of f equal to one of paths:
// its imports, and any other spelling of an import path.
func pathLits(f *ast.File, paths ...string) (out []*ast.BasicLit) {
	ast.Inspect(f, func(n ast.Node) bool {
		if s, ok := strLit(n); ok && slices.Contains(paths, s) {
			out = append(out, n.(*ast.BasicLit))
		}
		return true
	})
	return out
}

// mentions returns a violation for each identifier and string literal
// of the files that re matches.
func mentions(files []*srcFile, re *regexp.Regexp) (bad []string) {
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && re.MatchString(id.Name) {
				bad = append(bad, at(n.Pos(), "%s", id.Name))
			} else if s, ok := strLit(n); ok && re.MatchString(s) {
				bad = append(bad, at(n.Pos(), "%q", s))
			}
			return true
		})
	}
	return bad
}

// pkgImports returns the imports of the package in dir as go list
// reports them: its non-test files the build context selects.
func (tr srcTree) pkgImports(dir string) map[string]token.Pos {
	ctx := build.Default
	ctx.JoinPath = path.Join
	ctx.OpenFile = func(p string) (io.ReadCloser, error) {
		if f, ok := tr[p]; ok {
			return io.NopCloser(strings.NewReader(f.src)), nil
		}
		return nil, fs.ErrNotExist
	}
	out := map[string]token.Pos{}
	for _, f := range tr.goFiles(func(p string) bool { return inDir(p, dir) && !isTest(p) }) {
		if ok, err := ctx.MatchFile(dir, path.Base(f.path)); err != nil || !ok {
			continue
		}
		for _, im := range f.ast.Imports {
			if s, _ := strLit(im.Path); out[s] == token.NoPos {
				out[s] = im.Pos()
			}
		}
	}
	return out
}

// forbidImports returns a violation for each of paths the package in
// dir imports.
func (tr srcTree) forbidImports(dir, why string, paths ...string) (bad []string) {
	imps := tr.pkgImports(dir)
	for _, p := range paths {
		if pos, ok := imps[p]; ok {
			bad = append(bad, at(pos, "%s imports %s: %s", dir, p, why))
		}
	}
	return bad
}

// textLines returns a violation for each line of the tree's workflows
// that re matches.
func (tr srcTree) textLines(re *regexp.Regexp) (bad []string) {
	for _, f := range tr {
		if f.ast != nil {
			continue
		}
		for i, line := range strings.Split(f.src, "\n") {
			if re.MatchString(line) {
				bad = append(bad, fmt.Sprintf("%s:%d: %s", f.path, i+1, strings.TrimSpace(line)))
			}
		}
	}
	return bad
}

// Words the rules below look for in Go and in workflows.
var (
	hostNumberWords = regexp.MustCompile(`ParallelSpeedup|SerialFraction|par-bench`)
	benchGate       = regexp.MustCompile(`go test .*-bench.*[|>]|(ns|B|allocs)/op`)
	encodingWords   = regexp.MustCompile(`WriteFolded|WriteQuantileTable|folded-out|dot-out`)
	yamlEncodings   = regexp.MustCompile(`WriteFolded|func \([a-z]+ \*?Trace\) DOT\(|WriteQuantileTable|-folded-out|-dot-out`)
)

// archRule is one rule of the design: the section of DESIGN.md that
// states it, the check that lists its violations in a tree, and
// violations planted as fixtures, each of which it must reject.
type archRule struct {
	name, design string
	check        func(tr srcTree) []string
	planted      []*srcFile
}

func plant(p, src string) *srcFile { return &srcFile{path: p, src: src} }

var archRules = []archRule{{
	name:   "Commit-seam import boundary",
	design: "§3.1 Commit seam",
	// internal/core reaches its sidecars through the commit seam only:
	// the execution files import none, the state machines hold no
	// observer or logger, and account, lineage and health are imported
	// by the Config file, the consumers file and lineageplan.go alone.
	// The provenance store is written by core's lineage fold alone, and
	// the cost ledger's numbers leave it through Snapshot only.
	check: func(tr srcTree) (bad []string) {
		sidecars := []string{"redoop/internal/account", "redoop/internal/lineage", "redoop/internal/health"}
		for _, f := range tr.goFiles(func(p string) bool { return inDir(p, "internal/core") && !isTest(p) }) {
			switch path.Base(f.path) {
			case "agg.go", "join.go", "reuse.go", "evict.go":
				for _, l := range pathLits(f.ast, append(sidecars, "redoop/internal/obs/eventlog")...) {
					bad = append(bad, at(l.Pos(), "an execution file imports a sidecar, %s", l.Value))
				}
			case "controller.go", "scheduler.go", "statusmatrix.go":
				for _, l := range pathLits(f.ast, "redoop/internal/obs", "redoop/internal/obs/eventlog", "log/slog") {
					bad = append(bad, at(l.Pos(), "a state machine reports outside the commit seam, %s", l.Value))
				}
			}
			switch path.Base(f.path) {
			case "engine.go", "consumers.go", "lineageplan.go":
			default:
				for _, l := range pathLits(f.ast, sidecars...) {
					bad = append(bad, at(l.Pos(), "%s imported outside the seam", l.Value))
				}
			}
		}
		for _, dir := range []string{"internal/mapreduce", "internal/dfs", "internal/chaos"} {
			bad = append(bad, tr.forbidImports(dir, "the provenance store is written by core's lineage fold only",
				"redoop/internal/lineage")...)
		}
		return append(bad, tr.forbidImports("internal/account", "the ledger reports through its Snapshot only",
			"redoop/internal/obs")...)
	},
	planted: []*srcFile{
		plant("internal/core/evict.go", `package core; import _ "redoop/internal/account"`),
		plant("internal/core/scheduler.go", `package core; import "log/slog"; var _ = slog.Info`),
		plant("internal/chaos/planted.go", `package chaos; import _ "redoop/internal/lineage"`),
		plant("internal/account/planted.go", `package account; import _ "redoop/internal/obs"`),
	},
}, {
	name:   "Folds never format",
	design: "§3.1 Commit seam",
	// A commit fold runs on every cache transition, so it builds its
	// lookup keys on the stack; fmt in the file that holds the folds is
	// the first sign of a key built by formatting.
	check: func(tr srcTree) (bad []string) {
		for _, f := range tr.goFiles(func(p string) bool { return p == "internal/core/consumers.go" }) {
			for _, l := range pathLits(f.ast, "fmt") {
				bad = append(bad, at(l.Pos(), "the folds' file imports fmt"))
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if s, ok := n.(*ast.SelectorExpr); ok && isPkgSel(s, "fmt", s.Sel.Name) {
					bad = append(bad, at(n.Pos(), "a fold calls fmt.%s", s.Sel.Name))
				}
				return true
			})
		}
		return bad
	},
	planted: []*srcFile{
		plant("internal/core/consumers.go", `package core; import "fmt"; func key(p int) string { return fmt.Sprint(p) }`),
	},
}, {
	name:   "One cache-saving figure",
	design: "§6 Resource-accounting ledger",
	// The time cache reuse saves is computed once, by the cost ledger.
	// The profiler reads the spans alone, and the decision vocabulary
	// has no load event a second figure could be rebuilt from.
	check: func(tr srcTree) (bad []string) {
		bad = tr.forbidImports("internal/profile", "the profiler reads the spans alone",
			"redoop/internal/obs/eventlog", "redoop/internal/account")
		for _, f := range tr.goFiles(func(p string) bool { return inDir(p, "internal/obs/eventlog") }) {
			for _, l := range pathLits(f.ast, "cache.load") {
				bad = append(bad, at(l.Pos(), "eventlog defines a cache.load event type"))
			}
		}
		return bad
	},
	planted: []*srcFile{
		plant("internal/profile/planted.go", `package profile; import _ "redoop/internal/account"`),
		plant("internal/obs/eventlog/planted.go", `package eventlog; const CacheLoad Type = "cache.load"`),
	},
}, {
	name:   "One record",
	design: "§3.1 Sidecar retention",
	// The tracer is a run's only record: its segments hold the spans
	// and the decisions, and one retention rule keeps or drops both.
	// eventlog is the decisions' vocabulary only; Observer is the
	// tracer by another name; a field of the tracer named Events or
	// Metrics, a NewLog, a Registry type in obs, or a component pushing
	// to a counter, gauge or histogram is a second record coming back.
	check: func(tr srcTree) (bad []string) {
		for _, f := range tr.goFiles(func(p string) bool { return inDir(p, "internal/obs/eventlog") && !isTest(p) }) {
			for _, d := range f.ast.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					bad = append(bad, at(fd.Pos(), "eventlog declares method %s; it holds the vocabulary, not a record", fd.Name.Name))
				}
			}
		}
		bad = append(bad, mentions(tr.goFiles(func(string) bool { return true }), regexp.MustCompile(`\bNewLog\b`))...)
		for _, f := range tr.goFiles(func(p string) bool { return inDir(p, "internal/obs") }) {
			for _, d := range f.ast.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && recvType(fd) == "Observer" {
					bad = append(bad, at(fd.Pos(), "Observer declares method %s; it is the tracer by another name", fd.Name.Name))
				}
				g, ok := d.(*ast.GenDecl)
				if !ok || g.Tok != token.TYPE {
					continue
				}
				for _, s := range g.Specs {
					ts := s.(*ast.TypeSpec)
					switch id, alias := ts.Type.(*ast.Ident); ts.Name.Name {
					case "Registry":
						bad = append(bad, at(ts.Pos(), "obs declares a metrics registry beside the record"))
					case "Observer":
						if !alias || !ts.Assign.IsValid() || id.Name != "Tracer" {
							bad = append(bad, at(ts.Pos(), "Observer is not the tracer by another name"))
						}
					case "Tracer":
						ast.Inspect(ts.Type, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok && (id.Name == "Events" || id.Name == "Metrics") {
								bad = append(bad, at(id.Pos(), "the tracer holds %s beside its segments", id.Name))
							}
							return true
						})
					}
				}
			}
		}
		for _, f := range tr.goFiles(nonTestIn("internal/mapreduce", "internal/dfs", "internal/health", "internal/core")) {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					if s, ok := c.Fun.(*ast.SelectorExpr); ok && slices.Contains([]string{"Counter", "Gauge", "Histogram"}, s.Sel.Name) {
						bad = append(bad, at(n.Pos(), "a component pushes to a %s instead of recording a fact", s.Sel.Name))
					}
				}
				return true
			})
		}
		return bad
	},
	planted: []*srcFile{
		plant("internal/obs/eventlog/planted.go", `package eventlog; func (e Event) Append() {}`),
		plant("internal/obs/planted.go", `package obs; type Registry struct{}`),
		plant("internal/obs/obs.go", `package obs; type Observer struct{ Tracer *Tracer }`),
		plant("internal/obs/tracer.go", `package obs; type Tracer struct{ Events []Event }`),
		plant("examples/planted_test.go", `package examples; var log = eventlog.NewLog()`),
		plant("internal/dfs/planted.go", `package dfs; func (d *DFS) note() { d.obs.Counter("redoop_dfs_writes_total") }`),
	},
}, {
	name:   "Single run driver",
	design: "§4.1 Run driver",
	// Every figure, ablation, chaos regime and CLI run executes through
	// driver.go; a second RunNext call in the harness or the CLIs is a
	// second copy of the feed → trigger → verify loop.
	check: func(tr srcTree) (bad []string) {
		for _, f := range tr.goFiles(nonTestIn("internal/experiments", "cmd")) {
			if f.path == "internal/experiments/driver.go" {
				continue
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok && calleeName(c) == "RunNext" {
					if _, sel := c.Fun.(*ast.SelectorExpr); sel {
						bad = append(bad, at(n.Pos(), "RunNext called outside the run driver"))
					}
				}
				return true
			})
		}
		return bad
	},
	planted: []*srcFile{
		plant("cmd/redoopctl/planted.go", `package main; func loop(e interface{ RunNext() }) { e.RunNext() }`),
	},
}, {
	name:   "One recovery ladder",
	design: "§3 The recovery ladder",
	// Every per-partition cache probe goes through probeParts and every
	// pane's map rung through ensurePane: lookupCache anywhere else, or a
	// pane builder called anywhere else, is a second copy of a rung.
	check: func(tr srcTree) (bad []string) {
		builders := []string{"buildAggPane", "processAggPaneProactive", "buildJoinInputs"}
		for _, f := range tr.goFiles(program) {
			for _, d := range f.ast.Decls {
				fd, _ := d.(*ast.FuncDecl) // nil at package level
				ast.Inspect(d, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.Ident:
						if x.Name == "lookupCache" && !isMethod(fd, "probeParts", "lookupCache") {
							bad = append(bad, at(n.Pos(), "lookupCache outside probeParts"))
						}
					case *ast.SelectorExpr:
						if slices.Contains(builders, x.Sel.Name) && !isMethod(fd, "ensurePane") {
							bad = append(bad, at(n.Pos(), "%s outside ensurePane", x.Sel.Name))
						}
					}
					return true
				})
			}
		}
		return bad
	},
	planted: []*srcFile{
		plant("internal/core/planted.go", `package core; func (e *Engine) peek(pid []byte) bool { _, ok, _ := e.lookupCache(pid, 2); return ok }`),
		plant("internal/core/planted.go", `package core; func (e *Engine) again() { e.buildJoinInputs() }`),
	},
}, {
	name:   "One window geometry",
	design: "§2 System inventory",
	// window.Spec is a source's window constraint and window.Frame the
	// only pane and trigger arithmetic: a Spec method beyond the
	// constraint's own is a second copy of a Frame method, and an
	// instant built from a window unit outside internal/window a second
	// copy of Frame.At.
	check: func(tr srcTree) (bad []string) {
		for _, f := range tr.goFiles(func(p string) bool { return inDir(p, "internal/window") && !isTest(p) }) {
			for _, d := range f.ast.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && recvType(fd) == "Spec" &&
					!slices.Contains([]string{"Validate", "String", "PaneUnit", "Overlap"}, fd.Name.Name) {
					bad = append(bad, at(fd.Pos(), "Spec.%s is pane or window arithmetic; it belongs to Frame", fd.Name.Name))
				}
			}
		}
		// A unit call inside a simtime.Time conversion, or on its line.
		line := func(pos token.Pos) int { return archFset.Position(pos).Line }
		for _, f := range tr.goFiles(func(p string) bool { return program(p) && !under(p, "internal/window") }) {
			lines, inside := map[int]bool{}, map[ast.Node]bool{}
			var units []*ast.CallExpr
			ast.Inspect(f.ast, func(n ast.Node) bool {
				c, ok := n.(*ast.CallExpr)
				switch {
				case !ok:
				case isPkgSel(c.Fun, "simtime", "Time"):
					lines[line(c.Lparen)] = true
					ast.Inspect(c, func(m ast.Node) bool { inside[m] = true; return true })
				case slices.Contains([]string{"WindowClose", "PaneStart", "PaneEnd"}, calleeName(c)):
					units = append(units, c)
				}
				return true
			})
			for _, c := range units {
				if inside[c] || lines[line(c.Lparen)] {
					bad = append(bad, at(c.Lparen, "a window unit converted to an instant outside Frame.At"))
				}
			}
		}
		return bad
	},
	planted: []*srcFile{
		plant("internal/window/planted.go", `package window; func (s Spec) PaneOf(u int64) int64 { return u / s.Slide }`),
		plant("internal/core/planted.go", `package core; func close(f window.Frame, w int64) simtime.Time { return simtime.Time(f.WindowClose(w)) * 2 }`),
		plant("internal/core/planted.go", "package core\nfunc close(f window.Frame, w int64) (simtime.Time, int64) {\n\treturn simtime.Time(w), f.PaneEnd(w)\n}"),
	},
}, {
	name:   "One eviction policy",
	design: "§6 Cost-based cache replacement",
	// Both cache tiers rank victims with account.CompareVictims, called
	// at the engine's seam and by the reuse index only, and the tracer's
	// cache.evict decisions are the one record of evictions: a second
	// log, an ROI callback into the index or a third caller of the
	// ranker is a second policy coming back.
	check: func(tr srcTree) (bad []string) {
		files := tr.goFiles(program)
		bad = mentions(files, regexp.MustCompile(`\b(EvictionLog|evictLog|SetROI)\b`))
		callers := []string{"internal/core/consumers.go", "internal/reuse/index.go"}
		for _, f := range files {
			for _, d := range f.ast.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "CacheROI" && recvType(fd) == "Ledger" {
					bad = append(bad, at(fd.Pos(), "the ledger has a second ranking signal, CacheROI"))
				}
			}
			calls := mentions([]*srcFile{f}, regexp.MustCompile(`^CompareVictims$`))
			switch i := slices.Index(callers, f.path); {
			case i >= 0 && len(calls) > 0:
				callers = slices.Delete(callers, i, i+1)
			case i < 0 && len(calls) > 0 && !under(f.path, "internal/account"):
				bad = append(bad, calls[0]+": a third caller of the ranker")
			}
		}
		for _, p := range callers {
			bad = append(bad, p+": ranks victims without account.CompareVictims")
		}
		return bad
	},
	planted: []*srcFile{
		plant("internal/experiments/planted.go", `package experiments; import "redoop/internal/account"; var rank = account.CompareVictims`),
		plant("internal/core/evict.go", `package core; type EvictionLog []string`),
		plant("internal/account/planted.go", `package account; func (l *Ledger) CacheROI(pid string) float64 { return 0 }`),
	},
}, {
	name:   "No HTTP surface",
	design: "§2 System inventory",
	// Every report is a redoopctl subcommand or an artifact flag; the
	// program serves nothing. Only the benchmark module may import
	// net/http.
	check: func(tr srcTree) (bad []string) {
		re := regexp.MustCompile(`^net/http(/[a-z/]+)?$`)
		for _, f := range tr.goFiles(program) {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if s, ok := strLit(n); ok && re.MatchString(s) {
					bad = append(bad, at(n.Pos(), "%s outside benchmark/", s))
				}
				return true
			})
		}
		return bad
	},
	planted: []*srcFile{
		plant("internal/obs/planted.go", `package obs; import _ "net/http/pprof"`),
	},
}, {
	name:   "One host-number surface",
	design: "§5 Testing strategy",
	// Host time is measured in one place, the benchmark module. The
	// root package keeps one benchmark, the serial Figure 6 run; a
	// second root benchmark, a wall-clock speedup or serial fraction,
	// or a CI gate read off go test -bench output is a second host
	// clock coming back.
	check: func(tr srcTree) (bad []string) {
		for _, f := range tr.goFiles(func(p string) bool { return inDir(p, ".") && isTest(p) }) {
			for _, d := range f.ast.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil &&
					strings.HasPrefix(fd.Name.Name, "Benchmark") && fd.Name.Name != "BenchmarkFig6Workers1" {
					bad = append(bad, at(fd.Pos(), "a second root benchmark, %s", fd.Name.Name))
				}
			}
		}
		bad = append(bad, mentions(tr.goFiles(func(string) bool { return true }), hostNumberWords)...)
		bad = append(bad, tr.textLines(hostNumberWords)...)
		return append(bad, tr.benchGates()...)
	},
	planted: []*srcFile{
		plant("planted_test.go", `package redoop; func BenchmarkFig7(b *testing.B) {}`),
		plant("cmd/redoop-bench/planted.go", `package main; type run struct{ ParallelSpeedup float64 }`),
		plant(".github/workflows/planted.yml", "      - run: |\n          go test -run '^$' -bench . \\\n            ./internal/core | tee bench.txt\n"),
	},
}, {
	name:   "One encoding per record",
	design: "§3.1 Commit seam",
	// Each record leaves the program in one format: the derivation DAG
	// as -lineage-out JSON, the spans as Chrome trace JSON, the metrics
	// as Prometheus text, and the reports print durations with one
	// formatter, simtime.FormatNS. A Graphviz writer, folded stacks, a
	// quantile table or a second duration formatter is a second
	// encoding that could disagree with the first.
	check: func(tr srcTree) (bad []string) {
		all := tr.goFiles(func(string) bool { return true })
		bad = mentions(all, encodingWords)
		var formatters []string
		for _, f := range all {
			for _, d := range f.ast.Decls {
				fd, ok := d.(*ast.FuncDecl)
				switch {
				case !ok:
				case fd.Name.Name == "DOT" && recvType(fd) == "Trace":
					bad = append(bad, at(fd.Pos(), "a Graphviz encoding of a trace"))
				case fd.Recv == nil && (fd.Name.Name == "fmtNS" || fd.Name.Name == "FormatNS") && !under(f.path, "benchmark"):
					formatters = append(formatters, at(fd.Pos(), "%s", fd.Name.Name))
				}
			}
		}
		if len(formatters) > 1 {
			bad = append(bad, formatters...)
		}
		return append(bad, tr.textLines(yamlEncodings)...)
	},
	planted: []*srcFile{
		plant("internal/profile/planted.go", `package profile; func fmtNS(ns int64) string { return "" }`),
		plant("cmd/redoopctl/planted.go", `package main; var out = flag.String("folded-out", "", "folded stacks")`),
		plant("internal/profile/planted.go", `package profile; func (t *Trace) DOT() string { return "" }`),
	},
}}

// benchGates returns each workflow command, its continuation lines
// joined, that reads go test -bench output for a gate.
func (tr srcTree) benchGates() (bad []string) {
	for _, f := range tr {
		if f.ast != nil {
			continue
		}
		cmd := ""
		sc := bufio.NewScanner(strings.NewReader(f.src))
		for line := 1; sc.Scan(); line++ {
			text := strings.TrimLeft(sc.Text(), " \t")
			if strings.HasPrefix(text, "#") {
				continue
			}
			if cmd += text; strings.HasSuffix(text, `\`) {
				continue
			}
			if benchGate.MatchString(cmd) {
				bad = append(bad, fmt.Sprintf("%s:%d: a gate read off go test -bench output: %s", f.path, line, cmd))
			}
			cmd = ""
		}
	}
	return bad
}

// TestArchitecture checks every rule over the module and over each of
// its planted violations, which the rule must reject by the planted
// file's name; DESIGN.md names every rule where it states it.
func TestArchitecture(t *testing.T) {
	tr := loadTree(t)
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := strings.Join(strings.Fields(string(b)), " ")
	for _, r := range archRules {
		t.Run(strings.ReplaceAll(r.name, " ", "_"), func(t *testing.T) {
			if !strings.Contains(design, "*"+r.name+"*") {
				t.Errorf("DESIGN.md (%s) does not name the rule *%s*", r.design, r.name)
			}
			for _, v := range r.check(tr) {
				t.Error(v)
			}
			for i, p := range r.planted {
				t.Run(fmt.Sprintf("planted%d", i), func(t *testing.T) {
					f, err := parseSrc(p.path, p.src)
					if err != nil {
						t.Fatal(err)
					}
					bad := r.check(tr.with(f))
					if !slices.ContainsFunc(bad, func(v string) bool { return strings.Contains(v, p.path+":") }) {
						t.Errorf("%s accepted:\n%s\nfound: %q", p.path, p.src, bad)
					}
				})
			}
		})
	}
}
