package redoop

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// The documents are checked like the code. EXPERIMENTS.md's figure
// tables, headline and shape marks are rendered from the figures record,
// bench-trajectory/FIGS.json, between markers; a shape mark is a
// predicate over the record that prints the numbers it compared, so
// neither a number nor a mark can be typed. DESIGN.md is a map under a
// size cap, and every file, test and rule it names resolves, as does
// every reference to one of its sections. The newest CHANGES.md entry is
// capped too.

var updateDocs = flag.Bool("update-docs", false, "rewrite EXPERIMENTS.md's rendered blocks from bench-trajectory/FIGS.json")

const (
	designCap  = 30000 // bytes of DESIGN.md
	changesCap = 1536  // bytes of the newest CHANGES.md entry
)

// figsRecord is the part of the figures record the documents read.
type figsRecord struct {
	Figures []struct {
		Name   string
		Panels []figPanel
	}
	HeadlineSpeedup float64
}

type figPanel struct {
	Overlap float64
	Series  []figSeries
}

type figSeries struct {
	System                                                  string
	MakespanNS, MeanSteadyNS, TotalShuffleNS, TotalReduceNS int64
	Windows                                                 []struct{ ResponseNS int64 }
}

// panels returns the named figure's panels; a missing figure or system
// stops the render.
func (r *figsRecord) panels(t *testing.T, name string) []figPanel {
	for _, f := range r.Figures {
		if f.Name == name {
			return f.Panels
		}
	}
	t.Fatalf("FIGS.json has no %s", name)
	return nil
}

func (p figPanel) sys(t *testing.T, name string) figSeries {
	for _, s := range p.Series {
		if s.System == name {
			return s
		}
	}
	t.Fatalf("FIGS.json: overlap %v has no %s series", p.Overlap, name)
	return figSeries{}
}

func (s figSeries) w1() int64 { return s.Windows[0].ResponseNS }

// steady is the series' windows from the second on.
func (s figSeries) steady() []int64 {
	out := make([]int64, 0, len(s.Windows))
	for _, w := range s.Windows[1:] {
		out = append(out, w.ResponseNS)
	}
	return out
}

// speedup is base's mean steady response over s's, as redoop-bench
// computes it.
func speedup(base, s figSeries) float64 { return float64(base.MeanSteadyNS) / float64(s.MeanSteadyNS) }

func ms(ns int64) string     { return fmt.Sprintf("%.2f", float64(ns)/1e6) }
func secs(ns int64) string   { return fmt.Sprintf("%.2f", float64(ns)/1e9) }
func times(x float64) string { return fmt.Sprintf("%.2f×", x) }
func pct(a, b int64) string  { return fmt.Sprintf("%+.1f %%", 100*(float64(a)/float64(b)-1)) }
func within(a, b int64, f float64) bool {
	return float64(a) >= (1-f)*float64(b) && float64(a) <= (1+f)*float64(b)
}

// shape is one shape check: the claim, the numbers it compared, and
// whether the claim holds on them.
type shape struct {
	claim, numbers string
	holds          bool
}

func shapes(checks ...shape) string {
	var b strings.Builder
	for _, c := range checks {
		mark := "✓"
		if !c.holds {
			mark = "✗"
		}
		fmt.Fprintf(&b, "- %s — %s. %s\n", c.claim, c.numbers, mark)
	}
	return b.String()
}

// eachPanel joins f over the panels with "; " and reports whether ok
// held on every one.
func eachPanel(panels []figPanel, f func(p figPanel) (string, bool)) (string, bool) {
	var parts []string
	all := true
	for _, p := range panels {
		s, ok := f(p)
		parts = append(parts, fmt.Sprintf("%v: %s", p.Overlap, s))
		all = all && ok
	}
	return strings.Join(parts, "; "), all
}

// The paper's reading of each Figure 6 and 7 panel (§6.2).
var paperShape = map[string][]string{
	"Figure 6": {"≈8× average", "moderate", `small ("cache does not help much")`},
	"Figure 7": {"≈9× best case", "moderate", "≈parity"},
}

// responseTables renders a Figure 6 or 7 panel table and its phase
// totals.
func responseTables(t *testing.T, fig string, panels []figPanel) string {
	var b strings.Builder
	b.WriteString("| overlap | Hadoop w1 / steady | Redoop w1 / steady | speedup (w2+) | paper |\n|---|---|---|---|---|\n")
	for i, p := range panels {
		h, r := p.sys(t, "Hadoop"), p.sys(t, "Redoop")
		fmt.Fprintf(&b, "| %v | %s / %s | %s / %s | %s | %s |\n", p.Overlap, ms(h.w1()), ms(h.MeanSteadyNS),
			ms(r.w1()), ms(r.MeanSteadyNS), times(speedup(h, r)), paperShape[fig][i])
	}
	b.WriteString("\nPhase totals over 10 windows (ms):\n\n| overlap | system | shuffle | reduce |\n|---|---|---|---|\n")
	for _, p := range panels {
		for _, sys := range []string{"Hadoop", "Redoop"} {
			s := p.sys(t, sys)
			fmt.Fprintf(&b, "| %v | %s | %s | %s |\n", p.Overlap, sys, ms(s.TotalShuffleNS), ms(s.TotalReduceNS))
		}
	}
	return b.String()
}

// windowOneTie is the paper's reading of window 1: both systems process
// the whole window, so they tie within 10 %.
func windowOneTie(t *testing.T, panels []figPanel) shape {
	nums, ok := eachPanel(panels, func(p figPanel) (string, bool) {
		h, r := p.sys(t, "Hadoop").w1(), p.sys(t, "Redoop").w1()
		return fmt.Sprintf("%s against %s ms (%s)", ms(r), ms(h), pct(r, h)), within(r, h, 0.10)
	})
	return shape{"Window 1 within ±10 % of Hadoop at every overlap", nums, ok}
}

// speedupShapes are Redoop winning at every overlap and its win falling
// with the overlap; panels run from the highest overlap down.
func speedupShapes(t *testing.T, panels []figPanel) (wins, falls shape) {
	var xs []string
	fall := true
	wins.holds = true
	for i, p := range panels {
		x := speedup(p.sys(t, "Hadoop"), p.sys(t, "Redoop"))
		xs = append(xs, times(x))
		wins.holds = wins.holds && x >= 1
		if i > 0 {
			fall = fall && x < speedup(panels[i-1].sys(t, "Hadoop"), panels[i-1].sys(t, "Redoop"))
		}
	}
	var overlaps []string
	for _, p := range panels {
		overlaps = append(overlaps, fmt.Sprint(p.Overlap))
	}
	nums := strings.Join(xs, ", ") + " at overlaps " + strings.Join(overlaps, ", ")
	return shape{"Redoop ≥ 1.0× at every overlap", nums, wins.holds},
		shape{"The steady speedup falls as the overlap drops", nums, fall}
}

func renderFig6(t *testing.T, panels []figPanel) (table, checks string) {
	wins, falls := speedupShapes(t, panels)
	hi := panels[0]
	h, r := hi.sys(t, "Hadoop"), hi.sys(t, "Redoop")
	lo, top := slices.Min(r.steady()), slices.Max(r.steady())
	avg := r.MeanSteadyNS
	shuffleX := float64(h.TotalShuffleNS) / float64(r.TotalShuffleNS)
	reduceX := float64(h.TotalReduceNS) / float64(r.TotalReduceNS)
	return responseTables(t, "Figure 6", panels), shapes(
		windowOneTie(t, panels),
		shape{fmt.Sprintf("Redoop's windows 2–10 flat at overlap %v, within ±10 %% of their mean", hi.Overlap),
			fmt.Sprintf("%s to %s ms around %s", ms(lo), ms(top), ms(avg)), within(lo, avg, 0.10) && within(top, avg, 0.10)},
		wins, falls,
		shape{fmt.Sprintf("Both Redoop phase totals shrink at overlap %v, the shuffle most", hi.Overlap),
			fmt.Sprintf("shuffle %s against %s ms (%s less), reduce %s against %s (%s less)",
				ms(r.TotalShuffleNS), ms(h.TotalShuffleNS), times(shuffleX),
				ms(r.TotalReduceNS), ms(h.TotalReduceNS), times(reduceX)),
			shuffleX > 1 && reduceX > 1 && shuffleX > reduceX},
	)
}

func renderFig7(t *testing.T, panels []figPanel) (table, checks string) {
	wins, falls := speedupShapes(t, panels)
	nums, dominates := eachPanel(panels, func(p figPanel) (string, bool) {
		var parts []string
		ok := true
		for _, sys := range []string{"Hadoop", "Redoop"} {
			s := p.sys(t, sys)
			parts = append(parts, fmt.Sprintf("%s %.1f× its shuffle", sys, float64(s.TotalReduceNS)/float64(s.TotalShuffleNS)))
			ok = ok && s.TotalReduceNS > s.TotalShuffleNS
		}
		return "reduce " + strings.Join(parts, ", "), ok
	})
	return responseTables(t, "Figure 7", panels), shapes(
		windowOneTie(t, panels),
		shape{"The reduce phase dominates the join for both systems at every overlap", nums, dominates},
		wins, falls,
	)
}

// fig8Spike reports whether window w (1-based) of Figure 8 is a spike:
// its newest slide carries double load (§6.3: windows 1, 4, 7 and 10
// are normal; workload.PaperFluctuation).
func fig8Spike(w int) bool { return (w-1)%3 != 0 }

func renderFig8(t *testing.T, panels []figPanel) (table, trace, checks, claim string) {
	var b strings.Builder
	b.WriteString("| overlap | Redoop | Adaptive Redoop | adaptive vs non-adaptive |\n|---|---|---|---|\n")
	best, bestAt := 0.0, 0.0
	for _, p := range panels {
		h, r, a := p.sys(t, "Hadoop"), p.sys(t, "Redoop"), p.sys(t, "Adaptive Redoop")
		x := speedup(r, a)
		fmt.Fprintf(&b, "| %v | %s | %s | %s |\n", p.Overlap, times(speedup(h, r)), times(speedup(h, a)), times(x))
		if x > best {
			best, bestAt = x, p.Overlap
		}
	}
	mid := panels[len(panels)/2]
	var tr strings.Builder
	fmt.Fprintf(&tr, "Per window at overlap %v (virtual seconds):\n\n", mid.Overlap)
	tr.WriteString("| window | load | Hadoop | Redoop | Adaptive Redoop |\n|---|---|---|---|---|\n")
	h, r, a := mid.sys(t, "Hadoop"), mid.sys(t, "Redoop"), mid.sys(t, "Adaptive Redoop")
	for i := range h.Windows {
		load := "normal"
		if fig8Spike(i + 1) {
			load = "spike"
		}
		fmt.Fprintf(&tr, "| %d | %s | %s | %s | %s |\n", i+1, load,
			secs(h.Windows[i].ResponseNS), secs(r.Windows[i].ResponseNS), secs(a.Windows[i].ResponseNS))
	}
	adaptive, adaptiveOK := eachPanel(panels, func(p figPanel) (string, bool) {
		x := speedup(p.sys(t, "Redoop"), p.sys(t, "Adaptive Redoop"))
		return times(x), x >= 1
	})
	spikes, spikesOK := eachPanel(panels, func(p figPanel) (string, bool) {
		r, a := p.sys(t, "Redoop"), p.sys(t, "Adaptive Redoop")
		var gain [2]int64 // normal, spike
		var n [2]int64
		for i := 1; i < len(r.Windows); i++ {
			k := 0
			if fig8Spike(i + 1) {
				k = 1
			}
			gain[k] += r.Windows[i].ResponseNS - a.Windows[i].ResponseNS
			n[k]++
		}
		spike, normal := gain[1]/n[1], gain[0]/n[0]
		return fmt.Sprintf("%s s a spike window against %s s a normal one", secs(spike), secs(normal)), spike > normal
	})
	grows, growsOK := eachPanel(panels, func(p figPanel) (string, bool) {
		h := p.sys(t, "Hadoop")
		last := h.Windows[len(h.Windows)-1].ResponseNS
		return fmt.Sprintf("%s to %s s", secs(h.w1()), secs(last)), last > h.w1()
	})
	absorbs, absorbsOK := eachPanel(panels, func(p figPanel) (string, bool) {
		a := p.sys(t, "Adaptive Redoop")
		last := a.Windows[len(a.Windows)-1].ResponseNS
		return fmt.Sprintf("%s to %s s", secs(a.w1()), secs(last)), float64(last) <= 1.1*float64(a.w1())
	})
	checks = shapes(
		shape{"Adaptive Redoop ≥ non-adaptive Redoop at every overlap", adaptive, adaptiveOK},
		shape{"The adaptive gain is concentrated in the spike windows (mean gain a window, windows 2–10)", spikes, spikesOK},
		shape{"Hadoop degrades through the fluctuation: window 10 slower than window 1", grows, growsOK},
		shape{"Adaptive Redoop absorbs it: window 10 at most 10 % above window 1", absorbs, absorbsOK},
	)
	claim = fmt.Sprintf("Measured: adaptive over non-adaptive Redoop peaks at %s (Figure 8, overlap %v; %s).\n",
		times(best), bestAt, adaptive)
	return b.String(), tr.String(), checks, claim
}

// fig9Order is Figure 9's expected order, fastest first.
var fig9Order = []struct{ system, paper string }{
	{"Redoop", "best"},
	{"Redoop(f)", `"still much shorter than Hadoop"`},
	{"Hadoop", "baseline"},
	{"Hadoop(f)", `"worst performance, as expected"`},
}

func renderFig9(t *testing.T, panels []figPanel) (table, checks string) {
	p := panels[0]
	var b strings.Builder
	b.WriteString("| system | cumulative (ms) | paper |\n|---|---|---|\n")
	var series []figSeries
	for _, o := range fig9Order {
		s := p.sys(t, o.system)
		series = append(series, s)
		fmt.Fprintf(&b, "| %s | %s | %s |\n", o.system, ms(s.MakespanNS), o.paper)
	}
	ordered := true
	cum := make([]int64, len(series))
	for w := range series[0].Windows {
		for i, s := range series {
			cum[i] += s.Windows[w].ResponseNS
		}
		for i := 1; w > 0 && i < len(cum); i++ {
			ordered = ordered && cum[i-1] < cum[i]
		}
	}
	var final []string
	for i := len(series) - 1; i >= 0; i-- {
		final = append(final, fmt.Sprintf("%s %s", fig9Order[i].system, ms(cum[i])))
	}
	r, rf, h := series[0], series[1], series[2]
	worst, best := slices.Max(rf.steady()), slices.Min(h.steady())
	return b.String(), shapes(
		shape{"Cumulative order Hadoop(f) > Hadoop > Redoop(f) > Redoop at every window from the second",
			"after window 10, " + strings.Join(final, " > ") + " ms", ordered},
		shape{"Redoop(f) ties Redoop at window 1, before any cache exists to lose",
			fmt.Sprintf("%s against %s ms", ms(rf.w1()), ms(r.w1())), within(rf.w1(), r.w1(), 0.01)},
		shape{"Redoop(f)'s loss is bounded: its every window from the second below Hadoop's",
			fmt.Sprintf("slowest %s against Hadoop's fastest %s ms", ms(worst), ms(best)), worst < best},
	)
}

// renderHeadline renders the best steady speedup of Figures 6 and 7,
// which must be the record's headlineSpeedup.
func renderHeadline(t *testing.T, rec *figsRecord) string {
	best, at := 0.0, ""
	for _, fig := range []string{"Figure 6", "Figure 7"} {
		for _, p := range rec.panels(t, fig) {
			if x := speedup(p.sys(t, "Hadoop"), p.sys(t, "Redoop")); x > best {
				best, at = x, fmt.Sprintf("%s, overlap %v", fig, p.Overlap)
			}
		}
	}
	if best != rec.HeadlineSpeedup {
		t.Errorf("FIGS.json's headlineSpeedup %v is not the best Figure 6/7 speedup %v", rec.HeadlineSpeedup, best)
	}
	return fmt.Sprintf("Measured: best steady-state speedup **%s** (%s; `headlineSpeedup` in\n`bench-trajectory/FIGS.json`, which `redoop-bench` prints as %.1fx) at the default scale.\n",
		times(best), at, best)
}

// renderBlocks renders every block of EXPERIMENTS.md from the record.
func renderBlocks(t *testing.T, rec *figsRecord) map[string]string {
	blocks := map[string]string{"headline": renderHeadline(t, rec)}
	blocks["fig6"], blocks["fig6-shape"] = renderFig6(t, rec.panels(t, "Figure 6"))
	blocks["fig7"], blocks["fig7-shape"] = renderFig7(t, rec.panels(t, "Figure 7"))
	blocks["fig8"], blocks["fig8-trace"], blocks["fig8-shape"], blocks["adaptivity"] = renderFig8(t, rec.panels(t, "Figure 8"))
	blocks["fig9"], blocks["fig9-shape"] = renderFig9(t, rec.panels(t, "Figure 9"))
	return blocks
}

var blockRE = regexp.MustCompile(`(?s)<!-- figs:([\w-]+) -->\n(.*?)<!-- /figs:([\w-]+) -->`)

// spliceBlocks returns doc with each block's body replaced by its
// rendering, and what differed: a body that is not its rendering, a
// block without a rendering, a rendering without a block.
func spliceBlocks(doc string, blocks map[string]string) (string, []string) {
	var drift []string
	seen := map[string]bool{}
	out := blockRE.ReplaceAllStringFunc(doc, func(m string) string {
		g := blockRE.FindStringSubmatch(m)
		name, body := g[1], g[2]
		want, ok := blocks[name]
		switch {
		case g[3] != name:
			drift = append(drift, fmt.Sprintf("block %s closes as %s", name, g[3]))
			return m
		case !ok:
			drift = append(drift, "no rendering for block "+name)
			return m
		case seen[name]:
			drift = append(drift, "block "+name+" appears twice")
		}
		seen[name] = true
		if body != want {
			drift = append(drift, fmt.Sprintf("block %s drifted from FIGS.json:\n--- in the document ---\n%s--- rendered ---\n%s", name, body, want))
		}
		return "<!-- figs:" + name + " -->\n" + want + "<!-- /figs:" + name + " -->"
	})
	for name := range blocks {
		if !seen[name] {
			drift = append(drift, "EXPERIMENTS.md has no block "+name)
		}
	}
	slices.Sort(drift)
	return out, drift
}

// typedMarks returns the lines outside the blocks that carry a shape
// mark: every mark is rendered, so none may be typed.
func typedMarks(doc string) (bad []string) {
	for _, line := range strings.Split(blockRE.ReplaceAllString(doc, ""), "\n") {
		if strings.ContainsAny(line, "✓✗") {
			bad = append(bad, fmt.Sprintf("a typed mark outside the rendered blocks: %q", line))
		}
	}
	return bad
}

// docFiles returns the repository's files by slash path, with the text
// of those that may cite DESIGN.md: every Go file, workflow and Markdown
// file but the history in CHANGES.md and root documents outside the
// project's own.
func docFiles(t *testing.T) map[string]string {
	t.Helper()
	root := map[string]bool{"README.md": true, "EXPERIMENTS.md": true, "ROADMAP.md": true, "DESIGN.md": true}
	files := map[string]string{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (p == ".git" || p == ".bench_build"):
			return fs.SkipDir
		case d.IsDir():
			return nil
		}
		p = filepath.ToSlash(p)
		ext := path.Ext(p)
		if ext == ".md" && !strings.Contains(p, "/") && !root[p] || ext != ".go" && ext != ".md" && ext != ".yml" {
			files[p] = "" // named, not read
			return nil
		}
		b, err := os.ReadFile(p)
		files[p] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

var (
	testDecl   = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`)
	testName   = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	codeSpan   = regexp.MustCompile("`([^`\n]+)`")
	pathToken  = regexp.MustCompile(`^(?:\./)?[\w.-]+(?:/[\w.*-]+)+/?$|^[\w.-]+\.(?:go|md|json|yml|sh|golden)$`)
	italic     = regexp.MustCompile(`(?:^|[^*\w])\*([^*\n]+)\*(?:[^*\w]|$)`)
	heading    = regexp.MustCompile(`(?m)^#{2,3} (\d+(?:\.\d+)?)\.? (.+)$`)
	sectionRef = regexp.MustCompile(`DESIGN\.md §(\d+(?:\.\d+)?)`)
	quotedRef  = regexp.MustCompile(`DESIGN\.md(?: §\d+(?:\.\d+)?)?,? \(?"([^"]+)"`)
	wrap       = regexp.MustCompile(`\s*\n\s*(?://\s*)?`)
)

// resolves reports whether a path-like token names a file or directory
// of the repository: its last segments match the token, a glob or not.
func resolves(tok string, files map[string]string) bool {
	tok = strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(tok, "./"), "redoop/"), "/")
	n := strings.Count(tok, "/") + 1
	for p := range files {
		for segs := strings.Split(p, "/"); len(segs) >= n; segs = segs[:len(segs)-1] {
			if ok, _ := path.Match(tok, strings.Join(segs[len(segs)-n:], "/")); ok {
				return true
			}
		}
	}
	return false
}

// designSection reports whether DESIGN.md has a section numbered num,
// and designLead whether it has a heading or bold lead reading name.
func designSection(design, num string) bool {
	for _, m := range heading.FindAllStringSubmatch(design, -1) {
		if m[1] == num {
			return true
		}
	}
	return false
}

func designLead(design, name string) bool {
	for _, m := range heading.FindAllStringSubmatch(design, -1) {
		if strings.Contains(m[2], name) {
			return true
		}
	}
	return strings.Contains(design, "**"+name)
}

// designNames returns what DESIGN.md names that does not resolve: a
// test no test file declares, a path no file or directory matches, an
// italic phrase that is not a rule of arch_test.go.
func designNames(design string, files map[string]string) (bad []string) {
	tests := map[string]bool{}
	for p, src := range files {
		if strings.HasSuffix(p, "_test.go") {
			for _, m := range testDecl.FindAllStringSubmatch(src, -1) {
				tests[m[1]] = true
			}
		}
	}
	for _, name := range testName.FindAllString(design, -1) {
		if !tests[name] {
			bad = append(bad, "no test "+name)
		}
	}
	for _, m := range codeSpan.FindAllStringSubmatch(design, -1) {
		if tok := m[1]; pathToken.MatchString(tok) && !resolves(tok, files) {
			bad = append(bad, "no file or directory "+tok)
		}
	}
	rules := map[string]bool{}
	for _, r := range archRules {
		rules[r.name] = true
	}
	prose := strings.Join(strings.Fields(codeSpan.ReplaceAllString(design, "")), " ")
	for _, m := range italic.FindAllStringSubmatch(prose, -1) {
		if !rules[m[1]] {
			bad = append(bad, fmt.Sprintf("*%s* is in italics, which name a rule, and arch_test.go has no such rule", m[1]))
		}
	}
	return bad
}

// designRefs returns the references to DESIGN.md's sections, in the
// files (but this one, whose fixtures are broken references) and in the
// rules' design fields, that name no section of it.
func designRefs(design string, files map[string]string) (bad []string) {
	for p, src := range files {
		if p == "docs_test.go" {
			continue
		}
		src = wrap.ReplaceAllString(src, " ")
		for _, m := range sectionRef.FindAllStringSubmatch(src, -1) {
			if !designSection(design, m[1]) {
				bad = append(bad, fmt.Sprintf("%s: DESIGN.md has no §%s", p, m[1]))
			}
		}
		for _, m := range quotedRef.FindAllStringSubmatch(src, -1) {
			if !designLead(design, m[1]) {
				bad = append(bad, fmt.Sprintf("%s: DESIGN.md has no section or lead %q", p, m[1]))
			}
		}
	}
	for _, r := range archRules {
		num, name, _ := strings.Cut(strings.TrimPrefix(r.design, "§"), " ")
		if !designSection(design, num) || !designLead(design, name) {
			bad = append(bad, fmt.Sprintf("rule *%s*: DESIGN.md has no %s", r.name, r.design))
		}
	}
	slices.Sort(bad)
	return bad
}

// newestEntry is CHANGES.md's newest entry: from its last "## PR"
// heading to the end of the file.
func newestEntry(changes string) string {
	if i := strings.LastIndex("\n"+changes, "\n## PR "); i >= 0 {
		changes = changes[i:]
	}
	if !strings.HasSuffix(changes, "\n") {
		changes += "\n"
	}
	return changes
}

func readDoc(t *testing.T, p string) string {
	t.Helper()
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestDocs(t *testing.T) {
	t.Run("EXPERIMENTS_rendered", func(t *testing.T) {
		var rec figsRecord
		if err := json.Unmarshal([]byte(readDoc(t, "bench-trajectory/FIGS.json")), &rec); err != nil {
			t.Fatal(err)
		}
		doc := readDoc(t, "EXPERIMENTS.md")
		blocks := renderBlocks(t, &rec)
		out, drift := spliceBlocks(doc, blocks)
		if *updateDocs && out != doc {
			if err := os.WriteFile("EXPERIMENTS.md", []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
			drift = nil
		}
		for _, d := range drift {
			t.Error(d + "\n(run go test -run TestDocs -update-docs . to render it)")
		}
		for _, m := range typedMarks(doc) {
			t.Error(m)
		}
		// A hand-edited digit and a hand-flipped mark are drift.
		var names []string
		for n := range blocks {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, plant := range []struct {
			what, runes string // what an edit hits, and the runes it may hit
			to          func(rune) rune
		}{
			{"digit", "0123456789", func(r rune) rune { return '0' + (r-'0'+1)%10 }},
			{"mark", "✓✗", func(r rune) rune { return '✓' + '✗' - r }},
		} {
			planted := false
			for _, n := range names {
				body := blocks[n]
				i := strings.IndexAny(body, plant.runes)
				if i < 0 {
					continue
				}
				r, size := utf8.DecodeRuneInString(body[i:])
				open := "<!-- figs:" + n + " -->\n"
				edited := strings.Replace(out, open+body, open+body[:i]+string(plant.to(r))+body[i+size:], 1)
				if _, drift := spliceBlocks(edited, blocks); len(drift) == 0 {
					t.Errorf("a hand-edited %s in block %s went unnoticed", plant.what, n)
				}
				planted = true
				break
			}
			if !planted {
				t.Fatalf("no block holds a %s to edit", plant.what)
			}
		}
	})
	design := readDoc(t, "DESIGN.md")
	t.Run("DESIGN_size", func(t *testing.T) {
		if len(design) > designCap {
			t.Errorf("DESIGN.md is %d bytes, over its %d-byte cap: it is a map of the code, not a second copy", len(design), designCap)
		}
	})
	files := docFiles(t)
	t.Run("DESIGN_names", func(t *testing.T) {
		for _, b := range designNames(design, files) {
			t.Error("DESIGN.md: " + b)
		}
	})
	t.Run("DESIGN_references", func(t *testing.T) {
		for _, b := range designRefs(design, files) {
			t.Error(b)
		}
	})
	t.Run("DESIGN_planted", func(t *testing.T) {
		planted := design + "\n`TestNoSuchThing` `internal/core/nosuch.go` *No such rule*\n"
		if bad := designNames(planted, files); len(bad) != 3 {
			t.Errorf("a planted test, file and rule: found %q, want all three", bad)
		}
		refs := map[string]string{"planted.go": `// DESIGN.md §9.9 and DESIGN.md, "No such section"`}
		if bad := designRefs(design, refs); len(bad) != 2 {
			t.Errorf("a planted section number and name: found %q, want both", bad)
		}
	})
	t.Run("CHANGES_entry_cap", func(t *testing.T) {
		// An entry says what changed and how it was checked; a longer one
		// is a second copy of the diff.
		if e := newestEntry("## PR 1\nold\n## PR 2\nnew"); e != "## PR 2\nnew\n" {
			t.Errorf("the newest entry of a planted file is %q", e)
		}
		if e := newestEntry(readDoc(t, "CHANGES.md")); len(e) > changesCap {
			t.Errorf("the newest CHANGES.md entry is %d bytes, over the %d-byte cap", len(e), changesCap)
		}
	})
}
