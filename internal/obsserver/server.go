// Package obsserver is Redoop's live-introspection HTTP server: it
// exposes the observability layer of a running (or finished)
// simulation so operators can watch a recurring query work instead of
// waiting for post-run artifacts.
//
// Endpoints:
//
//	GET /               endpoint index (JSON)
//	GET /metrics        Prometheus text exposition of the metrics registry
//	GET /debug/events   flight-recorder events as JSON;
//	                    ?type=cache.hit&query=q1&since=SEQ&limit=N filter
//	GET /debug/cache    live cache controller state: signatures with
//	                    doneQueryMask bits plus every node's local
//	                    cache registry
//	GET /debug/panes    per-engine partition plans, pane inventories,
//	                    home assignments and the cache status matrix
//	GET /debug/health   per-query SLO health: deadline headroom, window
//	                    lag, miss streaks, forecast anomalies
//	GET /debug/profile  critical-path profile of the run so far: per-
//	                    recurrence phase/wait breakdowns (?query=
//	                    filters)
//	GET /debug/critpath just the critical-path segment tilings
//	                    (?query= and ?recurrence= filter)
//	GET /debug/costs    per-query resource costs from the accounting
//	                    ledger: phase compute, IO bytes, cache
//	                    byte·seconds, recompute saved, cache ROI, plus
//	                    per-tenant rollups
//	GET /debug/lineage  provenance store: the derivation DAG with plan
//	                    fingerprints, batch claims and rebuild history
//	                    (?query=&pane=&fingerprint= filter, ?id= traces
//	                    one node, ?format=dot renders Graphviz)
//	GET /debug/reuse    cross-query reuse index: published entries with
//	                    their operator fingerprints, hit/miss/eviction
//	                    counters, per-engine fingerprints (?query=
//	                    filters the entries to one producer)
//	GET /debug/         HTML index of the mounted debug endpoints
//	GET /debug/stream   Server-Sent Events feed of the flight recorder:
//	                    replays retained events (?since=SEQ resumes)
//	                    then streams live ones until the client leaves;
//	                    idle periods carry keepalive comment frames
//
// The server holds no state of its own — every request snapshots the
// live components under their own locks — so it can be attached to a
// run mid-flight and polled while recurrences execute.
package obsserver

import (
	"encoding/json"
	"fmt"
	"html"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"redoop/internal/account"
	"redoop/internal/core"
	"redoop/internal/health"
	"redoop/internal/lineage"
	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
	"redoop/internal/profile"
	"redoop/internal/reuse"
)

// DefaultKeepAlive is the idle interval after which /debug/stream
// emits an SSE comment frame so proxies and clients can tell a quiet
// recorder from a dead connection.
const DefaultKeepAlive = 15 * time.Second

// Server serves the introspection endpoints for one observer and any
// number of attached engines.
type Server struct {
	obs *obs.Observer

	// KeepAlive overrides the /debug/stream keepalive interval; zero
	// means DefaultKeepAlive, negative disables keepalives.
	KeepAlive time.Duration

	mu      sync.Mutex
	engines []*core.Engine
	ctrls   []*core.Controller
}

// New builds a server over an observer. A nil observer is allowed: the
// metrics and event endpoints serve empty documents.
func New(o *obs.Observer) *Server {
	return &Server{obs: o}
}

// Attach registers an engine (and its cache controller, deduplicated —
// engines may share one) with the debug endpoints. Safe to call while
// the server is running.
func (s *Server) Attach(engines ...*core.Engine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range engines {
		if e == nil {
			continue
		}
		s.engines = append(s.engines, e)
		ctrl := e.Controller()
		seen := false
		for _, c := range s.ctrls {
			if c == ctrl {
				seen = true
				break
			}
		}
		if !seen && ctrl != nil {
			s.ctrls = append(s.ctrls, ctrl)
		}
	}
}

// endpoint is one mounted route: its path, the one-line description
// the indexes render, and its handler.
type endpoint struct {
	path string
	doc  string
	h    http.HandlerFunc
}

// endpoints is the single route registry: Handler mounts exactly these
// routes (plus the two index pages) and endpointDocs derives the
// catalogue from the same table, so the mux and the documentation
// cannot drift apart.
func (s *Server) endpoints() []endpoint {
	return []endpoint{
		{"/metrics", "Prometheus text exposition of the metrics registry", s.handleMetrics},
		{"/debug/events", "flight-recorder events (?type=&query=&since=&limit=)", s.handleEvents},
		{"/debug/cache", "cache controller signatures and node registries", s.handleCache},
		{"/debug/panes", "partition plans, pane files, homes and status matrix", s.handlePanes},
		{"/debug/health", "per-query SLO health: headroom, lag, streaks, anomalies", s.handleHealth},
		{"/debug/profile", "critical-path profile (?query=)", s.handleProfile},
		{"/debug/critpath", "critical-path segment tilings (?query=&recurrence=)", s.handleCritPath},
		{"/debug/costs", "per-query resource costs, cache ROI and tenant rollups", s.handleCosts},
		{"/debug/lineage", "provenance store: derivation DAG, plans, stats (?query=&pane=&fingerprint=&id=&format=dot)", s.handleLineage},
		{"/debug/reuse", "cross-query reuse index: entries, hit/eviction counters (?query= filters entries)", s.handleReuse},
		{"/debug/stream", "Server-Sent Events live feed (?since=SEQ resumes)", s.handleStream},
	}
}

// Handler returns the server's route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/debug/", s.handleDebugIndex)
	for _, ep := range s.endpoints() {
		mux.HandleFunc(ep.path, ep.h)
	}
	return mux
}

// Start listens on addr (":0" picks a free port) and serves in a
// background goroutine, returning the bound address. The listener
// lives until the process exits — the debug server is an attachment to
// a run, not a managed service.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obsserver: listen %s: %w", addr, err)
	}
	go func() {
		_ = http.Serve(ln, s.Handler())
	}()
	return ln.Addr().String(), nil
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, s.endpointDocs())
}

// endpointDocs maps every mounted endpoint to its one-line description;
// the JSON root index and the /debug/ HTML index both render it. It is
// derived from the endpoints table, never hand-maintained.
func (s *Server) endpointDocs() map[string]string {
	docs := make(map[string]string)
	for _, ep := range s.endpoints() {
		docs[ep.path] = ep.doc
	}
	return docs
}

// handleDebugIndex serves /debug/ as a small HTML directory of the
// mounted debug endpoints, so a browser landing there can click through
// instead of guessing paths. Any other unmatched /debug/* path 404s.
func (s *Server) handleDebugIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/debug/" && r.URL.Path != "/debug" {
		http.NotFound(w, r)
		return
	}
	docs := s.endpointDocs()
	paths := make([]string, 0, len(docs))
	for p := range docs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<!DOCTYPE html>\n<html><head><title>redoop debug</title></head><body>\n")
	fmt.Fprint(w, "<h1>redoop debug endpoints</h1>\n<ul>\n")
	for _, p := range paths {
		fmt.Fprintf(w, "<li><a href=%q>%s</a> — %s</li>\n",
			p, html.EscapeString(p), html.EscapeString(docs[p]))
	}
	fmt.Fprint(w, "</ul>\n</body></html>\n")
}

// handleCosts merges the cost-ledger snapshots of every distinct ledger
// the attached engines account to (engines usually share one) into a
// per-query cost document with per-tenant rollups.
func (s *Server) handleCosts(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	engines := append([]*core.Engine(nil), s.engines...)
	s.mu.Unlock()
	var ledgers []*account.Ledger
	for _, e := range engines {
		l := e.Account()
		if l == nil {
			continue
		}
		seen := false
		for _, have := range ledgers {
			if have == l {
				seen = true
				break
			}
		}
		if !seen {
			ledgers = append(ledgers, l)
		}
	}
	queries := []account.QueryCosts{}
	for _, l := range ledgers {
		queries = append(queries, l.Snapshot()...)
	}
	writeJSON(w, map[string]any{
		"queries": queries,
		"tenants": account.RollupTenants(queries),
	})
}

// lineageStores collects the distinct provenance stores the attached
// engines record into (engines usually share one), mirroring the
// ledger dedup in handleCosts.
func (s *Server) lineageStores() []*lineage.Store {
	s.mu.Lock()
	engines := append([]*core.Engine(nil), s.engines...)
	s.mu.Unlock()
	var stores []*lineage.Store
	for _, e := range engines {
		lin := e.Lineage()
		if lin == nil {
			continue
		}
		seen := false
		for _, have := range stores {
			if have == lin {
				seen = true
				break
			}
		}
		if !seen {
			stores = append(stores, lin)
		}
	}
	return stores
}

// handleLineage serves the provenance store: by default the whole
// retained derivation DAG (?query=, ?pane=, ?fingerprint= narrow it),
// or the ancestor/descendant trace of one node via ?id=. ?format=dot
// renders Graphviz instead of the JSON envelope.
func (s *Server) handleLineage(w http.ResponseWriter, r *http.Request) {
	stores := s.lineageStores()
	qs := r.URL.Query()
	pane := int64(-1)
	if v := qs.Get("pane"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			http.Error(w, "bad pane", http.StatusBadRequest)
			return
		}
		pane = n
	}
	dot := false
	switch qs.Get("format") {
	case "", "json":
	case "dot":
		dot = true
	default:
		http.Error(w, "bad format (want json or dot)", http.StatusBadRequest)
		return
	}

	if id := qs.Get("id"); id != "" {
		for _, lin := range stores {
			if tr, ok := lin.Trace(id); ok {
				if dot {
					w.Header().Set("Content-Type", "text/plain; charset=utf-8")
					fmt.Fprint(w, tr.DOT())
					return
				}
				writeJSON(w, tr)
				return
			}
		}
		http.Error(w, "unknown derivation "+id, http.StatusNotFound)
		return
	}

	query := qs.Get("query")
	fp := qs.Get("fingerprint")
	if dot {
		// Stores are disjoint by construction (each derivation ID embeds
		// its query), so their graphs concatenate into one digraph.
		var merged lineage.Trace
		for _, lin := range stores {
			tr := lin.Graph(query, pane, fp)
			merged.Nodes = append(merged.Nodes, tr.Nodes...)
			merged.Edges = append(merged.Edges, tr.Edges...)
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, merged.DOT())
		return
	}
	type storeDoc struct {
		Stats     lineage.Stats     `json:"stats"`
		Watermark uint64            `json:"watermark"`
		Plans     map[string]string `json:"plans"`
		Graph     lineage.Trace     `json:"graph"`
	}
	docs := []storeDoc{}
	for _, lin := range stores {
		docs = append(docs, storeDoc{
			Stats:     lin.Stats(),
			Watermark: lin.Watermark(),
			Plans:     lin.Plans(),
			Graph:     lin.Graph(query, pane, fp),
		})
	}
	writeJSON(w, map[string]any{"stores": docs})
}

// handleReuse serves the cross-query reuse layer: the distinct reuse
// indexes the attached engines share (usually one), each with its
// counters and surviving entries in canonical order, plus every
// engine's geometry-independent operator fingerprint so entries can be
// matched back to the queries that could consume them. ?query= narrows
// the entries to one producer.
func (s *Server) handleReuse(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	engines := append([]*core.Engine(nil), s.engines...)
	s.mu.Unlock()
	var indexes []*reuse.Index
	type engineFP struct {
		Query string `json:"query"`
		OpFP  string `json:"opFingerprint"`
	}
	fps := []engineFP{}
	for _, e := range engines {
		fps = append(fps, engineFP{Query: e.Query().Name, OpFP: e.OpFingerprint()})
		idx := e.ReuseIndex()
		if idx == nil {
			continue
		}
		seen := false
		for _, have := range indexes {
			if have == idx {
				seen = true
				break
			}
		}
		if !seen {
			indexes = append(indexes, idx)
		}
	}
	query := r.URL.Query().Get("query")
	type indexDoc struct {
		Stats   reuse.Stats   `json:"stats"`
		Entries []reuse.Entry `json:"entries"`
	}
	docs := []indexDoc{}
	for _, idx := range indexes {
		entries := idx.Snapshot()
		if query != "" {
			kept := entries[:0]
			for _, en := range entries {
				if en.Query == query {
					kept = append(kept, en)
				}
			}
			entries = kept
		}
		if entries == nil {
			entries = []reuse.Entry{}
		}
		docs = append(docs, indexDoc{Stats: idx.Stats(), Entries: entries})
	}
	writeJSON(w, map[string]any{"indexes": docs, "engines": fps})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.obs == nil || s.obs.Metrics == nil {
		return
	}
	_ = s.obs.Metrics.WritePrometheus(w)
}

// eventsPage is the /debug/events response envelope.
type eventsPage struct {
	// Seq is the recorder's latest sequence number — pass it back as
	// ?since= to poll for only newer events.
	Seq uint64 `json:"seq"`
	// Dropped counts events lost to ring wraparound since the start.
	Dropped uint64           `json:"dropped"`
	Events  []eventlog.Event `json:"events"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	var log *eventlog.Log
	if s.obs != nil {
		log = s.obs.Events
	}
	f := eventlog.Filter{
		Type:  eventlog.Type(r.URL.Query().Get("type")),
		Query: r.URL.Query().Get("query"),
	}
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
			return
		}
		f.SinceSeq = n
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		f.Limit = n
	}
	page := eventsPage{Seq: log.Seq(), Dropped: log.Dropped(), Events: log.Select(f)}
	if page.Events == nil {
		page.Events = []eventlog.Event{}
	}
	writeJSON(w, page)
}

func (s *Server) handleCache(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ctrls := append([]*core.Controller(nil), s.ctrls...)
	s.mu.Unlock()
	dumps := make([]core.ControllerDump, 0, len(ctrls))
	for _, c := range ctrls {
		dumps = append(dumps, c.Dump())
	}
	writeJSON(w, map[string]any{"controllers": dumps})
}

func (s *Server) handlePanes(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	engines := append([]*core.Engine(nil), s.engines...)
	s.mu.Unlock()
	dumps := make([]core.EngineDump, 0, len(engines))
	for _, e := range engines {
		dumps = append(dumps, e.Dump())
	}
	writeJSON(w, map[string]any{"engines": dumps})
}

// handleHealth merges the SLO snapshots of every distinct monitor the
// attached engines report into one per-query status document. Engines
// sharing one monitor (the fleet configuration) contribute it once.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	engines := append([]*core.Engine(nil), s.engines...)
	s.mu.Unlock()
	var mons []*health.Monitor
	for _, e := range engines {
		m := e.Health()
		if m == nil {
			continue
		}
		seen := false
		for _, have := range mons {
			if have == m {
				seen = true
				break
			}
		}
		if !seen {
			mons = append(mons, m)
		}
	}
	queries := []health.QueryStatus{}
	worst := health.StatusOK
	for _, m := range mons {
		for _, st := range m.Snapshot() {
			queries = append(queries, st)
			if st.Status.Level() > worst.Level() {
				worst = st.Status
			}
		}
	}
	writeJSON(w, map[string]any{
		"status":  worst,
		"queries": queries,
	})
}

// snapshotProfile analyzes the observer's current span stream. The
// snapshot is taken under the tracer's lock, so the profile is
// consistent even while recurrences execute.
func (s *Server) snapshotProfile() *profile.Profile {
	var spans []obs.Event
	if s.obs != nil {
		spans = s.obs.Tracer.Events()
	}
	return profile.Analyze(spans)
}

// handleProfile serves the full critical-path profile of the run so
// far: per-recurrence walls, phase and wait breakdowns, node and
// worker attribution. The time caches saved is /debug/costs'.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	p := s.snapshotProfile()
	if q := r.URL.Query().Get("query"); q != "" {
		qp, ok := p.Queries[q]
		if !ok {
			http.Error(w, "unknown query "+q, http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{"query": qp})
		return
	}
	writeJSON(w, map[string]any{
		"queries":         p.Queries,
		"critPathTotalNS": int64(p.CritPathTotal()),
	})
}

// critPathEntry is one recurrence's tiling in the /debug/critpath
// response.
type critPathEntry struct {
	Query    string            `json:"query"`
	Index    int               `json:"index"`
	WallNS   int64             `json:"wallNS"`
	TaskNS   int64             `json:"taskNS"`
	WaitNS   int64             `json:"waitNS"`
	GapNS    int64             `json:"gapNS"`
	Segments []profile.Segment `json:"segments"`
}

// handleCritPath serves just the critical-path tilings, recurrence by
// recurrence; ?query= and ?recurrence= narrow the response.
func (s *Server) handleCritPath(w http.ResponseWriter, r *http.Request) {
	p := s.snapshotProfile()
	qFilter := r.URL.Query().Get("query")
	rFilter := -1
	if v := r.URL.Query().Get("recurrence"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad recurrence", http.StatusBadRequest)
			return
		}
		rFilter = n
	}
	entries := []critPathEntry{}
	for _, rec := range p.Recurrences {
		if qFilter != "" && rec.Query != qFilter {
			continue
		}
		if rFilter >= 0 && rec.Index != rFilter {
			continue
		}
		entries = append(entries, critPathEntry{
			Query: rec.Query, Index: rec.Index,
			WallNS: int64(rec.Wall), TaskNS: int64(rec.CritTask),
			WaitNS: int64(rec.CritWait), GapNS: int64(rec.CritGap),
			Segments: rec.CritPath,
		})
	}
	writeJSON(w, map[string]any{"recurrences": entries})
}

// handleStream serves the flight recorder as Server-Sent Events: the
// retained backlog first (so a client attaching after a fast run still
// sees the lifecycle), then live events as they are appended. Each
// frame carries the sequence number as its SSE id, the event type as
// its event name, and the JSON event as data.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	var log *eventlog.Log
	if s.obs != nil {
		log = s.obs.Events
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
			return
		}
		since = n
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	// Subscribe before replaying so no event falls between the backlog
	// snapshot and the live feed; duplicates from the overlap are
	// filtered by sequence number.
	ch, cancel := log.Subscribe(256)
	defer cancel()
	last := since
	for _, e := range log.Since(since) {
		if err := writeSSE(w, e); err != nil {
			return
		}
		last = e.Seq
	}
	fl.Flush()

	// A quiet recorder (run finished, or recurrences far apart) would
	// otherwise leave the connection silent for minutes; periodic SSE
	// comment frames keep intermediaries from reaping it and let the
	// client distinguish idle from dead.
	interval := s.KeepAlive
	if interval == 0 {
		interval = DefaultKeepAlive
	}
	var keepalive <-chan time.Time
	if interval > 0 {
		t := time.NewTicker(interval)
		defer t.Stop()
		keepalive = t.C
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keepalive:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case e, ok := <-ch:
			if !ok {
				return
			}
			if e.Seq <= last {
				continue
			}
			if err := writeSSE(w, e); err != nil {
				return
			}
			last = e.Seq
			fl.Flush()
		}
	}
}

// writeSSE emits one event in SSE framing: id, event name, data.
func writeSSE(w http.ResponseWriter, e eventlog.Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
	return err
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
