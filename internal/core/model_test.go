package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"redoop/internal/cluster"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// An executable model of §4 and §5's rollback, in maps and slices: the
// cache catalog (Tables 1 and 2) and a status matrix (Table 3, Figure 4).

// mrec is a cache's signature and what its node holds of it.
type mrec struct {
	signed  bool // registered, not only a row Registry.Add planted
	ready   Ready
	readyAt simtime.Time
	bytes   int64
	node    int
	owed    map[int]bool // the queries whose bit of the doneQueryMask is 0
	row     rowState
}

// model is the catalog, with each node's state (up, cache files, expired
// copies listed for its purge), and a status matrix: dimension d tracks
// panes [base[d], base[d]+n[d]).
type model struct {
	queries int
	groups  map[string][]int
	recs    map[entryKey]*mrec
	alive   []bool
	files   []map[entryKey]string
	purge   [][]entryKey
	frames  []window.Frame
	base    []window.PaneID
	n       []int
	done    map[[3]window.PaneID]bool // by coordinates: a matrix has at most three dimensions
}

func newModel(nodes int, frames []window.Frame) *model {
	m := &model{groups: map[string][]int{}, recs: map[entryKey]*mrec{}, alive: make([]bool, nodes),
		files: make([]map[entryKey]string, nodes), purge: make([][]entryKey, nodes), frames: frames, done: map[[3]window.PaneID]bool{}}
	for i := range nodes {
		m.lose(i, true)
	}
	for _, f := range frames { // a dimension starts as its source's first window
		lo, hi := f.WindowRange(0)
		m.base, m.n = append(m.base, lo), append(m.n, int(hi-lo)+1)
	}
	return m
}

// lose empties node n's cache files: a crash, a revival or a drop.
func (m *model) lose(n int, alive bool) {
	m.alive[n], m.files[n] = alive, map[entryKey]string{}
}

// addQuery adds a query, owed no cache that predates it.
func (m *model) addQuery() int {
	m.queries++
	return m.queries - 1
}

func (m *model) joinGroup(g string, q int) {
	if !slices.Contains(m.groups[g], q) {
		m.groups[g] = append(m.groups[g], q)
	}
}

// place puts k's row and bytes on node n. A live row elsewhere lists its
// copy there (re-homing); the new row replaces n's listed copies of k.
func (m *model) place(n int, k entryKey, data string) *mrec {
	r := m.recs[k]
	if r == nil {
		r = &mrec{}
		m.recs[k] = r
	} else if r.row == liveRow && r.node != n {
		m.purge[r.node] = append(m.purge[r.node], k)
	}
	m.purge[n] = slices.DeleteFunc(m.purge[n], func(c entryKey) bool { return c == k })
	if m.alive[n] {
		m.files[n][k] = data
	}
	r.node, r.row = n, liveRow
	return r
}

// register signs k on node n, cache-available: a new signature is owed
// to its users alone (the paper's init), an old one adds their claims.
func (m *model) register(n int, k entryKey, at simtime.Time, data string, users []int) {
	r := m.place(n, k, data)
	if !r.signed {
		r.signed, r.owed = true, map[int]bool{}
	}
	r.ready, r.readyAt, r.bytes = CacheAvailable, at, int64(len(data))
	for _, q := range users {
		m.claim(r, q)
	}
}

// claim owes r to query q, if q is registered, until q releases it.
func (m *model) claim(r *mrec, q int) {
	if q < m.queries {
		r.owed[q] = true
	}
}

// find is a lookup: cache-available, its bytes gone, is lost (§5).
func (m *model) find(k entryKey) (*mrec, found) {
	r := m.recs[k]
	switch {
	case r == nil || !r.signed:
		return r, unknown
	case r.ready != CacheAvailable:
		return r, unready
	}
	if _, ok := m.files[r.node][k]; r.row != liveRow || !ok {
		return r, lost
	}
	return r, resident
}

// acquire claims a resident cache for q and rolls a lost one back 2→1.
func (m *model) acquire(k entryKey, q int) found {
	r, f := m.find(k)
	if f == lost {
		r.ready = HDFSAvailable
	} else if f == resident {
		m.claim(r, q)
	}
	return f
}

// markDone releases k for q; the last release is the purge notice: the
// signature goes and a live row is listed on its node.
func (m *model) markDone(k entryKey, q int) bool {
	r := m.recs[k]
	if r == nil || !r.signed {
		return false
	}
	if delete(r.owed, q); len(r.owed) > 0 {
		return false
	}
	delete(m.recs, k)
	if r.row == liveRow {
		m.purge[r.node] = append(m.purge[r.node], k)
	}
	return true
}

// evict deletes k's live row on n: a signature rolls back 2→1, a bare
// row goes. It returns the bytes freed.
func (m *model) evict(n int, k entryKey) int {
	r, data := m.recs[k], m.files[n][k]
	if r == nil || r.node != n || r.row != liveRow {
		return 0
	}
	delete(m.files[n], k)
	if r.row, r.ready = noRow, HDFSAvailable; !r.signed {
		delete(m.recs, k)
	}
	return len(data)
}

// purgeNode deletes node n's listed copies.
func (m *model) purgeNode(n int) int {
	purged := len(m.purge[n])
	for _, k := range m.purge[n] {
		delete(m.files[n], k)
	}
	m.purge[n] = nil
	return purged
}

// below: a coordinate is below its dimension's base, shifted out done.
func (m *model) below(c []window.PaneID) bool {
	for d := range min(len(c), len(m.base)) {
		if c[d] < m.base[d] {
			return true
		}
	}
	return false
}

// isDone reads an entry; ok is false for the wrong number of coordinates.
func (m *model) isDone(c []window.PaneID) (done, ok bool) {
	return m.below(c) || m.done[[3]window.PaneID(append(slices.Clip(c), 0, 0, 0))], len(c) == len(m.base)
}

// update marks an entry done, growing the matrix; below a base, refused.
func (m *model) update(c []window.PaneID) bool {
	if len(c) != len(m.base) || m.below(c) {
		return false
	}
	for d := range c {
		m.n[d] = max(m.n[d], int(c[d]-m.base[d])+1)
	}
	m.done[[3]window.PaneID(append(slices.Clip(c), 0, 0, 0))] = true
	return true
}

// exhausted: every entry of pane p's lifespan is done (§4.2).
func (m *model) exhausted(dim int, p window.PaneID) bool {
	lo, hi := slices.Clone(m.base), slices.Clone(m.base)
	for d, f := range m.frames {
		var ok bool
		if lo[d], hi[d], ok = m.frames[dim].LifespanIn(p, f); d == dim {
			lo[d], hi[d] = p, p
		} else if !ok {
			return true // p precedes window 0 and owes nothing
		}
	}
	all := true
	eachCoord(lo, hi, func(c []window.PaneID) { done, _ := m.isDone(c); all = all && done })
	return all
}

// shift retires each dimension's leading expired panes (Figure 4(c)).
func (m *model) shift(r int) [][]window.PaneID {
	out := make([][]window.PaneID, len(m.base))
	for d, f := range m.frames {
		for p := m.base[d]; p < m.base[d]+window.PaneID(m.n[d]) && f.ExpiredAfter(p, r) && m.exhausted(d, p); p++ {
			out[d] = append(out[d], p)
		}
		m.base[d] += window.PaneID(len(out[d]))
	}
	return out
}

// The driver.

// modelKeys are the caches sequences name, in the catalog's report
// order.
var modelKeys = func() (ks [8]entryKey) {
	for i := range ks {
		ks[i] = entryKey{[]string{"S1P1", "S1P3", "S2P2", "S2P4"}[i/2], CacheType(1 + i%2)}
	}
	return ks
}()

func keyName(k entryKey) string { return k.pid + "/" + k.typ.String() }

// cacheVar is k's name in a fixed sequence: rinS1P1, routS1P1, ...
func cacheVar(k entryKey) string {
	return strings.Trim(strings.TrimPrefix(cacheDir(k.typ), "cache"), "/") + k.pid
}

func fileOf(k entryKey) string { return cacheDir(k.typ) + k.pid }

// opKinds are the ops. An op's bytes a, b, c and d name a node (a%nodes),
// a cache (modelKeys[b%8]), a query (c%queries) and its data (d%4 bytes
// of the step's letter). register reads its users from c, bits 0-5 or,
// with bit 7 set, group c>>6&1's members, and its ready instant from d/4;
// joinGroup reads its group from d%2. update and done read coordinates
// a, b and c, one per dimension, d%8 == 7 dropping or adding one;
// exhausted reads dimension a and pane b; shift reads recurrence a.
var opKinds = strings.Fields(`addQuery joinGroup register add acquire resolve markDone evict purge
	crash revive drop lookup entries get update done exhausted shift`)

// op is one step of a sequence, five bytes of a fuzz input.
type op struct {
	kind       string
	a, b, c, d uint8
}

// seq is an op sequence and its setup: setup[0] picks 2 or 3 nodes,
// setup[1] 1 to 3 sources, setup[2] their slide, 1 or 2 (1 for three
// sources), and setup[3] each source's window, slide to 2·slide+1, in
// two bits a source.
type seq struct {
	setup [4]uint8
	ops   []op
}

// decode reads a fuzz input: the setup's four bytes, then five per op.
func decode(data []byte) seq {
	var s seq
	for data = data[copy(s.setup[:], data):]; len(data) >= 5 && len(s.ops) < 100; data = data[5:] {
		s.ops = append(s.ops, op{opKinds[int(data[0])%len(opKinds)], data[1], data[2], data[3], data[4]})
	}
	return s
}

func (s seq) bytes() []byte {
	b := s.setup[:]
	for _, o := range s.ops {
		b = append(b, byte(slices.Index(opKinds, o.kind)), o.a, o.b, o.c, o.d)
	}
	return b
}

// modelRecurrences bounds the recurrences matrix ops name.
const modelRecurrences = 4

// pair is the implementation and the model under one sequence.
type pair struct {
	cl   *cluster.Cluster
	ctrl *Controller
	regs []*Registry
	mat  *StatusMatrix
	span []int // per dimension, the panes matrix ops name
	m    *model
}

func newPair(s seq) *pair {
	dims, slide := 1+int(s.setup[1]%3), int64(1+s.setup[2]%2)
	if dims == 3 {
		slide = 1
	}
	specs := make([]window.Spec, dims)
	for d := range specs {
		specs[d] = window.NewCountSpec(slide+int64(s.setup[3]>>(2*d)&3)%(slide+2), slide)
	}
	frames, err := window.NewFrames(specs)
	cl, cerr := cluster.New(cluster.Config{Workers: 2 + int(s.setup[0]%2), MapSlots: 1, ReduceSlots: 1})
	mat, merr := NewStatusMatrix(frames)
	if err := cmp.Or(err, cerr, merr); err != nil {
		panic(err)
	}
	p := &pair{cl: cl, ctrl: NewController(), mat: mat, m: newModel(len(cl.Nodes()), frames)}
	for _, n := range cl.Nodes() {
		p.regs = append(p.regs, p.ctrl.view(n))
	}
	for _, f := range frames {
		_, hi := f.WindowRange(modelRecurrences)
		p.span = append(p.span, int(hi)+2)
	}
	return p
}

var foundNames = [...]string{unknown: "unknown", unready: "unready", lost: "lost", resident: "resident"}

func refString(f found, ref cacheRef) string {
	if f < lost {
		return foundNames[f]
	}
	return fmt.Sprintf("%s %s@%d t%d %dB", foundNames[f], ref.key, ref.node, ref.readyAt, ref.bytes)
}

func (m *model) ref(k entryKey, f found) string {
	if r := m.recs[k]; f >= lost {
		return refString(f, cacheRef{key: fileOf(k), node: r.node, readyAt: r.readyAt, bytes: r.bytes})
	}
	return foundNames[f]
}

// sigString renders a signature, its done mask a bit per query.
func sigString(ready Ready, node int, at simtime.Time, bytes int64, mask []bool) string {
	bits := make([]byte, len(mask))
	for q, done := range mask {
		bits[q] = '0'
		if done {
			bits[q] = '1'
		}
	}
	return fmt.Sprintf("%v on %d at %d, %dB, done %s", ready, node, at, bytes, bits)
}

// mask is r's doneQueryMask: a bit per query, set unless r is owed to it.
func (m *model) mask(r *mrec) []bool {
	if !r.signed {
		return nil
	}
	mask := make([]bool, m.queries)
	for q := range mask {
		mask[q] = !r.owed[q]
	}
	return mask
}

func byEntry(a, b RegistryEntry) int { return byPID(a.PID, a.Type, b.PID, b.Type) }

// registry is node n's registry, which must come sorted.
func (p *pair) registry(n int) string {
	es := p.regs[n].Entries()
	if !slices.IsSortedFunc(es, byEntry) {
		return fmt.Sprint("unsorted ", es)
	}
	return fmt.Sprintf("%v cached %d", es, p.regs[n].CachedBytes())
}

// registry is node n's registry as the model has it: its live rows and
// listed copies, and the bytes its live rows hold.
func (m *model) registry(n int) string {
	var es []RegistryEntry
	cached := 0
	for k, r := range m.recs {
		if r.node == n && r.row == liveRow {
			es, cached = append(es, RegistryEntry{PID: k.pid, Type: k.typ}), cached+len(m.files[n][k])
		}
	}
	for _, k := range m.purge[n] {
		es = append(es, RegistryEntry{PID: k.pid, Type: k.typ, Expired: true})
	}
	slices.SortFunc(es, byEntry)
	return fmt.Sprintf("%v cached %d", es, cached)
}

// coords are the coordinates an update or done names.
func (p *pair) coords(o op) []window.PaneID {
	c := make([]window.PaneID, len(p.span))
	for d, v := range []uint8{o.a, o.b, o.c}[:len(c)] {
		c[d] = window.PaneID(int(v) % p.span[d])
	}
	switch {
	case o.d%8 != 7:
		return c
	case len(c) > 1:
		return c[1:]
	}
	return append(c, 0)
}

// doneString renders a matrix reading, "refused" for a malformed one.
func doneString(done, ok bool) string {
	if !ok {
		return "refused"
	}
	return fmt.Sprint(done)
}

// step applies o, the i-th op, to both sides and returns what it did and
// each side's result.
func (p *pair) step(i int, o op) (desc, got, want string) {
	m, n, k, c := p.m, int(o.a)%len(p.regs), modelKeys[o.b%8], p.coords(o)
	reg, pid, q := p.regs[n], []byte(k.pid), int(o.c)%max(m.queries, 1)
	data := strings.Repeat(string(rune('a'+i%26)), int(o.d%4))
	desc = fmt.Sprintf("%s %s on %d, query %d, %q", o.kind, keyName(k), n, q, data)
	switch o.kind {
	case "addQuery":
		desc, got, want = o.kind, fmt.Sprint(p.ctrl.addQuery()), fmt.Sprint(m.addQuery())
	case "joinGroup":
		g := fmt.Sprint("g", o.d%2)
		p.ctrl.JoinGroup(g, q)
		m.joinGroup(g, q)
		desc, got, want = fmt.Sprint("joinGroup ", g, " ", q), fmt.Sprint(p.ctrl.Group(g)), fmt.Sprint(m.groups[g])
	case "register":
		var users []int
		for u := range 6 {
			if o.c>>u&1 != 0 {
				users = append(users, u)
			}
		}
		mUsers := users
		if g := fmt.Sprint("g", o.c>>6&1); o.c&0x80 != 0 {
			users, mUsers = p.ctrl.Group(g), m.groups[g]
		}
		at := simtime.Time(o.d / 4)
		desc = fmt.Sprintf("register %s on %d for %v, %q at %d", keyName(k), n, mUsers, data, at)
		got, want = p.ctrl.register(n, newRecord(pid, k.typ), at, []byte(data), users), fileOf(k)
		m.register(n, k, at, data, mUsers)
	case "add":
		reg.Add(k.pid, k.typ, []byte(data))
		m.place(n, k, data)
	case "acquire":
		ref, f := p.ctrl.acquire(pid, k.typ, q)
		got, want = refString(f, ref), m.ref(k, m.acquire(k, q))
	case "resolve":
		got, want = "miss", "miss"
		if ref, ok := p.ctrl.resolve(pid, k.typ); ok {
			got = refString(resident, ref)
		}
		if _, f := m.find(k); f == resident {
			want = m.ref(k, f)
		}
	case "markDone":
		got, want = "kept", "kept"
		if sig := p.ctrl.markQueryDone(pid, k.typ, q); sig != nil {
			got = "purged notice " + keyName(entryKey{sig.PID, sig.Type})
		}
		if m.markDone(k, q) {
			want = "purged notice " + keyName(k)
		}
	case "evict":
		got, want = fmt.Sprint(reg.Evict(k.pid, k.typ)), fmt.Sprint(m.evict(n, k))
	case "purge":
		got, want = fmt.Sprint(reg.PurgeExpired()), fmt.Sprint(m.purgeNode(n))
	case "crash":
		p.cl.FailNode(n)
		m.lose(n, false)
	case "revive":
		p.cl.ReviveNode(n, 0)
		m.lose(n, true)
	case "drop":
		got, want = fmt.Sprint(p.cl.DropLocal(n, "cache/")), fmt.Sprint(len(m.files[n]))
		m.lose(n, m.alive[n])
	case "lookup", "entries", "get":
		got, want = p.read(o.kind, n, k)
	case "update":
		desc, got, want = fmt.Sprint("update ", c), doneString(true, p.mat.Update(c...) == nil), doneString(true, m.update(c))
	case "done":
		done, err := p.mat.Done(c...)
		desc, got, want = fmt.Sprint("done ", c), doneString(done, err == nil), doneString(m.isDone(c))
	case "exhausted":
		d := int(o.a) % len(p.span)
		pane := window.PaneID(int(o.b) % p.span[d])
		desc, got, want = fmt.Sprint("exhausted ", d, pane), fmt.Sprint(p.mat.Exhausted(d, pane)), fmt.Sprint(m.exhausted(d, pane))
	case "shift":
		r := int(o.a) % (modelRecurrences + 2)
		desc, got, want = fmt.Sprint("shift ", r), fmt.Sprint(p.mat.Shift(r)), fmt.Sprint(m.shift(r))
	default:
		panic("no op " + o.kind)
	}
	return desc, got, want
}

// read is what a read op sees of cache k, or of node n: its signature,
// the node's registry, or the node's bytes of k.
func (p *pair) read(kind string, n int, k entryKey) (got, want string) {
	m, reg := p.m, p.regs[n]
	switch kind {
	case "lookup":
		got, want = "none", "none"
		if sig, ok := p.ctrl.Lookup(k.pid, k.typ); ok {
			got = sigString(sig.Ready, sig.NID, sig.ReadyAt, sig.Bytes, sig.doneQueryMask)
		}
		if r := m.recs[k]; r != nil && r.signed {
			want = sigString(r.ready, r.node, r.readyAt, r.bytes, m.mask(r))
		}
		return got, want
	case "entries":
		return p.registry(n), m.registry(n)
	}
	d, ok := reg.Get(k.pid, k.typ)
	md, mok := m.files[n][k]
	return fmt.Sprintf("%q %v %v", d, ok, reg.Has(k.pid, k.typ)), fmt.Sprintf("%q %v %v", md, mok, mok)
}

// state reads each side's whole state as the ops read it: every cache's
// signature, and on every node its bytes of every cache and its
// registry; then the catalog's signature list, in its report order, and
// the matrix.
func (p *pair) state() (got, want []string) {
	add := func(g, w string) { got, want = append(got, g), append(want, w) }
	var sigs, mSigs []string
	for _, s := range p.ctrl.Signatures() {
		sigs = append(sigs, keyName(entryKey{s.PID, s.Type}))
	}
	for _, k := range modelKeys {
		if r := p.m.recs[k]; r != nil && r.signed {
			mSigs = append(mSigs, keyName(k))
		}
		add(p.read("lookup", 0, k))
		for n := range p.regs {
			add(p.read("get", n, k))
		}
	}
	for n := range p.regs {
		add(p.read("entries", n, entryKey{}))
	}
	add(fmt.Sprint(sigs), fmt.Sprint(mSigs))
	add(matrixString(p.mat.base, p.mat.n, func(c []window.PaneID) bool { d, _ := p.mat.Done(c...); return d }),
		matrixString(p.m.base, p.m.n, func(c []window.PaneID) bool { d, _ := p.m.isDone(c); return d }))
	return got, want
}

// matrixString renders a matrix's ranges and the done entries in them.
func matrixString(base []window.PaneID, n []int, isDone func([]window.PaneID) bool) string {
	hi, done := slices.Clone(base), []string{}
	for d := range hi {
		hi[d] += window.PaneID(n[d] - 1)
	}
	eachCoord(base, hi, func(c []window.PaneID) {
		if isDone(c) {
			done = append(done, fmt.Sprint(c))
		}
	})
	return fmt.Sprint(base, n, done)
}

// eachCoord calls fn on every coordinate of the box [lo, hi].
func eachCoord(lo, hi []window.PaneID, fn func([]window.PaneID)) {
	c := slices.Clone(lo)
	var walk func(d int)
	walk = func(d int) {
		if d == len(c) {
			fn(c)
			return
		}
		for c[d] = lo[d]; c[d] <= hi[d]; c[d]++ {
			walk(d + 1)
		}
	}
	walk(0)
}

// result is what a step did and what the implementation returned.
type result struct{ desc, got string }

// run drives a fresh implementation and model through s, comparing each
// op's results and then the two states. It returns the steps run and
// the first divergence.
func run(s seq) (res []result, err error) {
	p, i := newPair(s), 0
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("step %d, %v, panicked: %v", i, s.ops[i], r)
		}
	}()
	for ; i < len(s.ops); i++ {
		desc, got, want := p.step(i, s.ops[i])
		if res = append(res, result{desc, got}); got != want {
			return res, fmt.Errorf("step %d, %s: the implementation returned %q, the model %q", i, desc, got, want)
		}
		g, w := p.state()
		for j := range g {
			if g[j] != w[j] {
				return res, fmt.Errorf("after step %d, %s:\nimplementation %s\nmodel          %s", i, desc, g[j], w[j])
			}
		}
	}
	return res, nil
}

// diverged fails t on a diverging sequence. It shrinks the sequence,
// dropping runs of ops while it still diverges until no op can go, and
// prints the literal that replays it, each op with what it did.
func diverged(t *testing.T, s seq) {
	t.Helper()
	for shrunk := true; shrunk; {
		shrunk = false
		for n := len(s.ops) / 2; n > 0; n /= 2 {
			for i := 0; i+n <= len(s.ops); {
				if _, err := run(seq{s.setup, slices.Delete(slices.Clone(s.ops), i, i+n)}); err != nil {
					s.ops, shrunk = slices.Delete(s.ops, i, i+n), true
				} else {
					i += n
				}
			}
		}
	}
	res, err := run(s)
	var b strings.Builder
	for i, o := range s.ops {
		fmt.Fprintf(&b, "\t%-24s", fmt.Sprintf("%s %d %d %d %d;", o.kind, o.a, o.b, o.c, o.d))
		if i < len(res) {
			fmt.Fprintf(&b, " %s -> %q", res[i].desc, res[i].got)
		}
		b.WriteByte('\n')
	}
	t.Fatalf("%v\nshrunk to setup %v and %d ops, a replay script and what each did:\n%s", err, s.setup, len(s.ops), b.String())
}

// script reads a fixed sequence: steps split by ';', each an op kind, up
// to four arguments, a cache by its name (routS1P3) or any byte, and
// after '=' the result the step must return, when it shows a rule.
func script(setup [4]uint8, src string) (s seq, wants []string) {
	s.setup = setup
	for _, st := range strings.Split(src, ";") {
		st, want, _ := strings.Cut(st, "=")
		f := strings.Fields(st)
		if len(f) == 0 {
			continue
		}
		o := op{kind: f[0]}
		for i, arg := range f[1:] {
			n, err := strconv.Atoi(arg)
			if err != nil {
				n = slices.IndexFunc(modelKeys[:], func(k entryKey) bool { return cacheVar(k) == arg })
			}
			*[]*uint8{&o.a, &o.b, &o.c, &o.d}[i] = uint8(n)
		}
		s.ops, wants = append(s.ops, o), append(wants, strings.TrimSpace(want))
	}
	return s, wants
}

// replay runs a fixed sequence, a worked example of a rule, through the
// model and the implementation, and checks each step's result.
func replay(t *testing.T, setup [4]uint8, src string) {
	t.Helper()
	s, wants := script(setup, src)
	res, err := run(s)
	if err != nil {
		diverged(t, s)
	}
	for i, want := range wants {
		if want != "" && res[i].got != want {
			t.Errorf("step %d, %s: %q, want %q", i, res[i].desc, res[i].got, want)
		}
	}
}

// TestCatalogModel drives the model and the implementation with seeded
// random sequences: 1 to 3 queries (one sequence in eight has 16 more,
// past a done mask's inline bits), then 60 ops under one of the chaos
// profiles' fault mixes, crash and revive, cache loss, or both.
func TestCatalogModel(t *testing.T) {
	kinds := strings.Fields(`register register register add acquire acquire resolve markDone markDone markDone
		evict purge purge lookup entries get joinGroup addQuery update update update update done exhausted shift shift`)
	for _, faults := range []string{"crash revive", "drop", "crash revive drop"} {
		mix := append(slices.Clone(kinds), strings.Fields(faults)...)
		for seed := range int64(100) {
			rng, s := rand.New(rand.NewSource(seed)), seq{}
			for i := range s.setup {
				s.setup[i] = uint8(rng.Intn(256))
			}
			queries := 1 + rng.Intn(3)
			if rng.Intn(8) == 0 {
				queries += inlineQueries
			}
			for range queries {
				s.ops = append(s.ops, op{kind: "addQuery"})
			}
			for range 60 {
				s.ops = append(s.ops, op{mix[rng.Intn(len(mix))], uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))})
			}
			if _, err := run(s); err != nil {
				t.Logf("faults %q, seed %d", faults, seed)
				diverged(t, s)
			}
		}
	}
}

// FuzzCatalogModel runs the sequences fuzz inputs decode to. Its seeds
// follow the chaos crash and cache-loss profiles: caches registered, then
// a node crashes and revives, or drops its caches, and the catalog finds
// the loss, rolls back, rebuilds and purges.
func FuzzCatalogModel(f *testing.F) {
	for i, src := range []string{
		`addQuery; addQuery; register 0 routS1P3 3 3; register 1 rinS2P4 1 2; crash; acquire 0 routS1P3 1;
		resolve 0 rinS2P4; register 1 routS1P3 1 5; revive; purge; markDone 0 routS1P3; markDone 0 routS1P3 1; purge 1`,
		`addQuery; joinGroup; register 0 rinS1P1 128 3; register 0 routS1P1 1 3; register 2 rinS2P2 1 1; drop;
		resolve 0 routS1P1; acquire 0 rinS1P1; evict 0 routS1P1; register 1 rinS1P1 1 2; acquire 0 rinS1P1;
		markDone 0 rinS1P1; markDone 0 routS1P1; purge`,
	} {
		s, _ := script([4]uint8{uint8(i)}, src) // the second on three nodes
		f.Add(s.bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decode(data)
		if _, err := run(s); err != nil {
			diverged(t, s)
		}
	})
}
