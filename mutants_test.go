package redoop

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The mutant table: bugs planted in the paper's state machines, each an
// expression of one function rewritten, and the packages whose tests
// must catch it. TestMutants checks on every run that each row's
// function exists and its rewrite applies, so renaming a target breaks
// the table loudly. With REDOOP_MUTANTS=1 it also runs the rows, one
// `go test` at a time: the module is copied to a temporary directory,
// the row applied there, and the row's packages' tests must fail. A row
// no test catches stays in the table as a known survivor, with why,
// until a test kills it; it is never deleted to make the run pass.
type mutant struct {
	name     string
	file     string // slash-separated, relative to the module root
	fn       string // the function or methods whose bodies hold from
	from, to string // an expression occurring once in them, and its replacement
	pkgs     []string
	survives string // for a known survivor: why no test catches it
}

var mutants = []mutant{{
	name: "a purge notice before every query is done",
	file: "internal/core/catalog.go", fn: "markDoneLocked",
	from: "slices.Contains(r.doneQueryMask, false)", to: "false",
	pkgs: []string{"./internal/core"},
}, {
	name: "a lost cache keeps its ready bit (no §5 rollback 2→1)",
	file: "internal/core/catalog.go", fn: "acquire",
	from: "HDFSAvailable", to: "CacheAvailable",
	pkgs: []string{"./internal/core"},
}, {
	name: "the purge deletes a row a re-registration replaced",
	file: "internal/core/catalog.go", fn: "PurgeExpired",
	from: "cp.row != expiredRow", to: "false",
	pkgs: []string{"./internal/core"},
}, {
	name: "a re-homed cache leaves its old copy unexpired",
	file: "internal/core/catalog.go", fn: "placeLocked",
	from: "cur.NID != r.node.ID && cur.row == liveRow && old != nil", to: "false",
	pkgs: []string{"./internal/core"},
}, {
	name: "a new query's bit starts not done on existing caches",
	file: "internal/core/catalog.go", fn: "addQuery",
	from: "true", to: "false",
	pkgs: []string{"./internal/core"},
}, {
	name: "an evicted cache keeps its ready bit (no §5 rollback 2→1)",
	file: "internal/core/catalog.go", fn: "Evict",
	from: "HDFSAvailable", to: "CacheAvailable",
	pkgs: []string{"./internal/core"},
}, {
	name: "a status matrix update marks the wrong entry",
	file: "internal/core/statusmatrix.go", fn: "Update",
	from: "m.index(coords)", to: "0",
	pkgs: []string{"./internal/core"},
}, {
	name: "a shift moves a dimension's base by one pane too few",
	file: "internal/core/statusmatrix.go", fn: "shiftDim",
	from: "window.PaneID(k)", to: "window.PaneID(k - 1)",
	pkgs: []string{"./internal/core"},
}, {
	name: "ensurePane maps a pane whose reduce inputs are cached",
	file: "internal/core/engine.go", fn: "ensurePane",
	from: "!reused && !e.noReuse", to: "false",
	pkgs: []string{"./internal/core"},
}, {
	name: "Equation 4 ranks nodes by load alone, blind to C_task",
	file: "internal/core/scheduler.go", fn: "PickCacheTaskNode",
	from: "cost < bestCost", to: "load < bestLoad",
	pkgs: []string{"./internal/core"},
}, {
	name: "a record lands in the sub-pane before its own",
	file: "internal/core/packer.go", fn: "cellOf",
	from: "(ts - start) * n / width", to: "(ts - start) * (n - 1) / width",
	pkgs: []string{"./internal/core"},
}, {
	name: "a window closes without its source's offset on the shared cadence",
	file: "internal/window/frame.go", fn: "WindowClose",
	from: "f.Offset", to: "0",
	pkgs: []string{"./internal/window", "./internal/core"},
}, {
	name: "the finalization merge leaves the window's newest pane out",
	file: "internal/core/agg.go", fn: "finalizeAggWindow",
	from: "p <= routs.hi", to: "p < routs.hi",
	pkgs: []string{"./internal/core"},
}, {
	name: "a derivation's digest skips its first byte",
	file: "internal/lineage/fingerprint.go", fn: "SHA",
	from: "sha256.Sum256(data)", to: "sha256.Sum256(data[1:])",
	pkgs: []string{"./internal/lineage", "./internal/oracle"},
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

// copyModule copies the module's files under root to dst, less its
// version control and the benchmark's build cache.
func copyModule(t *testing.T, root, dst string) {
	t.Helper()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		switch {
		case d.IsDir() && (rel == ".git" || rel == ".bench_build" || rel == "artifacts"):
			return fs.SkipDir
		case d.IsDir():
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		case !d.Type().IsRegular():
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// goTest runs go test with args in dir and reports whether it passed.
func goTest(t *testing.T, dir string, args ...string) (bool, string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"test", "-count=1"}, args...)...)
	cmd.Dir, cmd.Env = dir, append(os.Environ(), "REDOOP_MUTANTS=") // a row's tests run no mutants
	out, err := cmd.CombinedOutput()
	return err == nil, string(out)
}

// TestMutants checks the mutant table; REDOOP_MUTANTS=1 runs it (a few
// minutes: one go test of each row's packages) and ends with, for each
// test file that killed a row, the rows no other file's tests killed.
func TestMutants(t *testing.T) {
	run := os.Getenv("REDOOP_MUTANTS") == "1"
	killers := map[string][]string{} // row -> the test files whose tests failed under it
	for _, m := range mutants {
		t.Run(strings.ReplaceAll(m.name, " ", "_"), func(t *testing.T) {
			src, why := m.apply(".")
			if why != "" {
				t.Fatalf("%s (%s): %s", m.file, m.fn, why)
			}
			if !run {
				return
			}
			dir := t.TempDir()
			copyModule(t, ".", dir)
			if err := os.WriteFile(filepath.Join(dir, filepath.FromSlash(m.file)), src, 0o644); err != nil {
				t.Fatal(err)
			}
			if ok, out := goTest(t, dir, append([]string{"-run", "^$"}, m.pkgs...)...); !ok {
				t.Fatalf("the mutant does not build:\n%s", out)
			}
			passed, out := goTest(t, dir, m.pkgs...)
			switch {
			case passed && m.survives == "":
				t.Errorf("survives: no test of %v catches it", m.pkgs)
			case passed:
				t.Logf("known survivor: %s", m.survives)
			case m.survives != "":
				t.Errorf("marked a survivor (%s), but a test of %v now catches it:\n%s", m.survives, m.pkgs, failures(out))
			default:
				t.Logf("killed by:\n%s", failures(out))
				killers[m.name] = testFiles(t, dir, m.pkgs, out)
			}
		})
	}
	if run {
		t.Log(onlyKills(killers))
	}
}

// testFiles returns the test files, relative to the module root dir, of
// pkgs that declare a test go test output out reports failed.
func testFiles(t *testing.T, dir string, pkgs []string, out string) []string {
	t.Helper()
	failed := map[string]bool{}
	for _, line := range strings.Split(failures(out), "\n") {
		if name, ok := strings.CutPrefix(strings.TrimSpace(line), "--- FAIL: "); ok {
			name, _, _ = strings.Cut(name, " ")
			name, _, _ = strings.Cut(name, "/")
			failed[name] = true
		}
	}
	var files []string
	for _, pkg := range pkgs {
		paths, err := filepath.Glob(filepath.Join(dir, filepath.FromSlash(pkg), "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && failed[fd.Name.Name] {
					rel, _ := filepath.Rel(dir, path)
					files = append(files, filepath.ToSlash(rel))
					break
				}
			}
		}
	}
	return files
}

// onlyKills renders, for each test file that killed a row, the rows that
// only its tests killed: a file with none catches nothing the others
// miss.
func onlyKills(killers map[string][]string) string {
	only := map[string][]string{}
	for _, m := range mutants {
		for _, f := range killers[m.name] {
			if len(killers[m.name]) == 1 {
				only[f] = append(only[f], m.name)
			} else if only[f] == nil {
				only[f] = []string{}
			}
		}
	}
	files := make([]string, 0, len(only))
	for f := range only {
		files = append(files, f)
	}
	sort.Strings(files)
	var b strings.Builder
	b.WriteString("rows only one test file kills:\n")
	for _, f := range files {
		b.WriteString("  " + f + ":")
		if len(only[f]) == 0 {
			b.WriteString(" none")
		}
		for _, row := range only[f] {
			b.WriteString("\n    " + row)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// failures returns the lines of go test output that name a failed test.
func failures(out string) string {
	var b strings.Builder
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "--- FAIL") {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}
