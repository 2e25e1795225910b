package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"ulixes/internal/changefeed"
	"ulixes/internal/cq"
	"ulixes/internal/engine"
	"ulixes/internal/guard"
	"ulixes/internal/hypertext"
	"ulixes/internal/nalg"
	"ulixes/internal/nested"
	"ulixes/internal/optimizer"
	"ulixes/internal/overload"
	"ulixes/internal/pagecache"
	"ulixes/internal/plancache"
	"ulixes/internal/site"
	"ulixes/internal/sitegen"
	"ulixes/internal/standing"
	"ulixes/internal/stats"
	"ulixes/internal/view"
)

// The traced run composes in-process the components ulixesd builds for a
// workload's flags (cmd/ulixesd/main.go) and replays the end-to-end run's
// operation sequence without HTTP. Spans come from wrapping the interfaces
// those components accept — site.Server below and above the guard,
// nalg.Source over the store session, the optimize callback handed to the
// plan cache, the admission queue, the change-feed sinks and the standing
// queries' answer callback — so the program itself carries no tracing.

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's start
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	QID    int    `json:"qid"`    // operation id; 0 = set-up
	N      int    `json:"n,omitempty"`
	Flag   bool   `json:"flag,omitempty"`
	Text   string `json:"text,omitempty"` // a query's text, on its root span
	url    string
	kids   []int
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. The replay runs one operation at a time;
// within one, the pipelined evaluator fetches from several goroutines.
type tracer struct {
	mu     sync.Mutex
	base   time.Time
	spans  []span            // guarded by mu
	qid    int               // guarded by mu
	root   int               // the current operation's root span; guarded by mu
	batch  map[int][]string  // open source spans → their URLs; guarded by mu
	guards map[string]int    // open guard-level spans by URL; guarded by mu
	pages  map[string]string // HTML of pages the origin served; guarded by mu
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), root: -1, batch: map[int][]string{}, guards: map[string]int{}, pages: map[string]string{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span under parent (-1 = the current operation's root).
func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.beginLocked(name, parent, "")
}

func (t *tracer) beginLocked(name string, parent int, url string) int {
	if parent < 0 {
		parent = t.root
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, QID: t.qid, url: url})
	i := len(t.spans) - 1
	if parent >= 0 {
		t.spans[parent].kids = append(t.spans[parent].kids, i)
	}
	return i
}

func (t *tracer) end(i int) { t.endN(i, 0, false) }

func (t *tracer) endN(i, n int, flag bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = t.now()
	t.spans[i].N = n
	t.spans[i].Flag = flag
	delete(t.batch, i)
}

// operation starts the root span of the next replayed operation.
func (t *tracer) operation(name, text string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.qid++
	t.root = -1
	t.root = t.beginLocked(name, -1, "")
	t.spans[t.root].Text = text
	return t.root
}

// tracedServer wraps a site.Server; below the guard it is the origin
// ("site"), above it the guarded path the store sees ("guard").
type tracedServer struct {
	inner  site.Server
	tr     *tracer
	origin bool
}

func (s *tracedServer) open(kind, url string) int {
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if s.origin {
		if g, ok := t.guards[url]; ok {
			parent = g
		}
	} else {
		for b, urls := range t.batch {
			for _, u := range urls {
				if u == url {
					parent = b
				}
			}
		}
	}
	name := "guard." + kind
	if s.origin {
		name = "site." + kind
	}
	i := t.beginLocked(name, parent, url)
	if !s.origin {
		t.guards[url] = i
	}
	return i
}

func (s *tracedServer) close(i int, n int) {
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = t.now()
	t.spans[i].N = n
	if !s.origin {
		delete(t.guards, t.spans[i].url)
	}
}

func (s *tracedServer) Get(url string) (site.Page, error) {
	i := s.open("get", url)
	p, err := s.inner.Get(url) //lint:allow fetchgate tracing wrapper around the store's own counted fetch
	s.close(i, len(p.HTML))
	if s.origin && err == nil {
		s.tr.mu.Lock()
		if len(s.tr.pages) < 4000 {
			s.tr.pages[url] = p.HTML
		}
		s.tr.mu.Unlock()
	}
	return p, err
}

func (s *tracedServer) Head(url string) (site.Meta, error) {
	i := s.open("head", url)
	m, err := s.inner.Head(url) //lint:allow fetchgate tracing wrapper around the store's own counted light connection
	s.close(i, 0)
	return m, err
}

// tracedSource wraps the evaluator's source over a store session; each call
// is one span listing the URLs it resolves.
type tracedSource struct {
	inner  nalg.Source
	tr     *tracer
	parent int
}

func (s tracedSource) open(urls []string) int {
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	i := t.beginLocked("nalg.source", s.parent, "")
	t.batch[i] = urls
	return i
}

func (s tracedSource) EntryPage(scheme, url string) (nested.Tuple, error) {
	i := s.open([]string{url})
	tup, err := s.inner.EntryPage(scheme, url)
	s.tr.endN(i, 1, false)
	return tup, err
}

func (s tracedSource) FollowPages(scheme string, urls []string) ([]nested.Tuple, error) {
	i := s.open(urls)
	tups, err := s.inner.FollowPages(scheme, urls)
	s.tr.endN(i, len(urls), false)
	return tups, err
}

// composed is the in-process system ulixesd would build for a workload.
type composed struct {
	tr      *tracer // nil for the untraced replay
	ms      *site.MemSite
	eng     *engine.Engine
	cache   *pagecache.Cache
	queue   *overload.Queue
	reg     *standing.Registry
	mutator *sitegen.Mutator
	crawl   time.Duration
	card    func(nalg.Expr) (float64, bool)
	muts    int
}

// compose mirrors cmd/ulixesd/main.go for the workload's configuration.
func compose(rc runConfig, traced bool) (*composed, error) {
	sz := rc.sizes()
	cfg := rc.wl.config(rc.short)
	c := &composed{}
	if traced {
		c.tr = newTracer()
	}
	var views *view.Registry
	var univ *sitegen.University
	switch rc.wl.site {
	case "university":
		u, err := sitegen.GenerateUniversity(sitegen.UniversityParams{Courses: sz.courses, Profs: sz.profs, Depts: sz.depts})
		if err != nil {
			return nil, err
		}
		ms, err := site.NewMemSite(u.Instance, nil)
		if err != nil {
			return nil, err
		}
		c.ms, views, univ = ms, view.UniversityView(u.Scheme), u
	default:
		b, err := sitegen.GenerateBibliography(sitegen.BibliographyParams{Authors: sz.authors})
		if err != nil {
			return nil, err
		}
		ms, err := site.NewMemSite(b.Instance, nil)
		if err != nil {
			return nil, err
		}
		c.ms, views = ms, view.BibliographyView(b.Scheme)
	}
	var origin site.Server = c.ms
	if traced {
		origin = &tracedServer{inner: c.ms, tr: c.tr, origin: true}
	}
	var server site.Server = guard.New(origin, guard.Config{
		ErrorThreshold: guard.DefaultErrorThreshold,
		OpenFor:        guard.DefaultOpenFor,
	})
	if traced {
		server = &tracedServer{inner: server, tr: c.tr}
	}
	ledger := overload.NewLedger()
	c.cache = pagecache.New(server, views.Scheme, pagecache.Config{
		MaxBytes:   cfg.cacheBytes,
		DefaultTTL: pagecache.Forever,
		Clock:      site.LogicalClock(),
		Meter:      ledger.Account("pagecache"),
	})
	t0 := time.Now()
	st, _, err := stats.CollectSite(server, views.Scheme)
	if err != nil {
		return nil, fmt.Errorf("statistics crawl: %w", err)
	}
	c.crawl = time.Since(t0)
	c.eng = engine.New(views, server, st)
	c.eng.Exec = engine.ExecOptions{Pipelined: true, Cache: c.cache}
	c.eng.Plans = plancache.New(plancache.Config{MaxEntries: cfg.planEntries})
	c.queue = overload.NewQueue(overload.QueueConfig{Slots: 8, MaxWait: 2 * time.Second})
	m := c.eng.Opt.Model()
	c.card = func(x nalg.Expr) (float64, bool) {
		est, err := m.Estimate(x)
		if err != nil {
			return 0, false
		}
		return est.Card, true
	}
	if cfg.feed {
		mon := changefeed.New(server, changefeed.Config{Clock: time.Now, MinInterval: 10 * time.Second})
		var invalidate changefeed.Sink = changefeed.SinkFunc(func(ev changefeed.Event) {
			if ev.Kind == site.ChangeTouched {
				c.cache.MarkStale(ev.URL)
				return
			}
			c.cache.Invalidate(ev.URL)
		})
		answer := func(q *cq.Query) (*nested.Relation, error) {
			ans, err := c.eng.QueryCQ(q)
			if err != nil {
				return nil, err
			}
			return ans.Result, nil
		}
		if traced {
			invalidate = tracedSink{invalidate, c.tr, "pagecache.invalidate"}
			answer = func(q *cq.Query) (*nested.Relation, error) {
				sp := c.tr.begin("standing.reanswer", -1)
				rel, _, err := c.execute(context.Background(), q, sp)
				c.tr.end(sp)
				return rel, err
			}
		}
		mon.Subscribe(invalidate)
		c.reg = standing.New(standing.Config{
			Views:  views,
			Meter:  ledger.Account("standingRings"),
			Clock:  time.Now,
			Answer: answer,
		})
		var regSink changefeed.Sink = c.reg
		if traced {
			regSink = tracedSink{c.reg, c.tr, "standing.on_change"}
		}
		mon.Subscribe(regSink)
		c.mutator = sitegen.NewMutator(univ, c.ms, rc.seed)
		mon.AttachMemSite(c.ms)
	}
	return c, nil
}

// tracedSink times one change-feed sink.
type tracedSink struct {
	inner changefeed.Sink
	tr    *tracer
	name  string
}

func (s tracedSink) OnChange(ev changefeed.Event) {
	i := s.tr.begin(s.name, -1)
	s.inner.OnChange(ev)
	s.tr.end(i)
}

// query answers one query text the way ulixesd's /query handler does:
// parse, admission, then the engine. The traced path spells the engine's
// steps out (engine.QueryCQOptsCtx and its shared-store execution) so
// each call into a layer gets its span.
func (c *composed) query(ctx context.Context, text string) (*nested.Relation, int, error) {
	if c.tr == nil {
		q, err := cq.Parse(text)
		if err != nil {
			return nil, 0, err
		}
		est, _ := c.eng.EstimatedPages(q)
		tk, err := c.queue.Acquire(ctx, overload.Normal, est)
		if err != nil {
			return nil, 0, err
		}
		defer tk.Release()
		ans, err := c.eng.QueryCQOptsCtx(ctx, q, c.eng.Exec)
		if err != nil {
			return nil, 0, err
		}
		st := ans.Exec
		return ans.Result, st.Pages + st.CacheHits + st.Revalidations + st.Stale, nil
	}
	root := c.tr.operation("query", text)
	defer c.tr.end(root)
	sp := c.tr.begin("cq.parse", root)
	q, err := cq.Parse(text)
	c.tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	est, _ := c.eng.EstimatedPages(q)
	sp = c.tr.begin("overload.acquire", root)
	tk, err := c.queue.Acquire(ctx, overload.Normal, est)
	c.tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	defer tk.Release()
	return c.execute(ctx, q, root)
}

// execute is the traced engine path: prepare (plan cache over Algorithm 1),
// typecheck, evaluate over a store session.
func (c *composed) execute(ctx context.Context, q *cq.Query, parent int) (*nested.Relation, int, error) {
	scope := fmt.Sprintf("%+v", c.eng.Opt.Opts)
	prep := c.tr.begin("plancache.prepare", parent)
	res, cached, err := c.eng.Plans.Prepare(q, c.eng.Stats, scope, func(q *cq.Query) (*optimizer.Result, error) {
		sp := c.tr.begin("optimizer.optimize", prep)
		r, err := c.eng.Opt.Optimize(q)
		n := 0
		if r != nil {
			n = len(r.Candidates)
		}
		c.tr.endN(sp, n, false)
		return r, err
	})
	c.tr.endN(prep, 0, cached)
	if err != nil {
		return nil, 0, err
	}
	expr := res.Best.Expr
	sp := c.tr.begin("nalg.check", parent)
	computable := nalg.Computable(expr)
	diags := nalg.Check(expr, c.eng.Views.Scheme)
	c.tr.end(sp)
	if !computable || len(diags) > 0 {
		return nil, 0, fmt.Errorf("plan not executable: %s", expr)
	}
	sess := c.cache.NewSession(pagecache.SessionOptions{})
	ev := c.tr.begin("nalg.eval", parent)
	src := tracedSource{inner: nalg.FetcherSource{F: sess, Ctx: ctx}, tr: c.tr, parent: ev}
	rel, err := nalg.EvalWithOptions(expr, c.eng.Views.Scheme, src, nalg.EvalOptions{Pipelined: true, EstimateCard: c.card})
	c.tr.end(ev)
	if err != nil {
		return nil, 0, err
	}
	st := sess.Stats()
	return rel, st.Fetches + st.CacheHits + st.Revalidations + st.Stale, nil
}

// mutate applies one /mutate step the way ulixesd's handler does.
func (c *composed) mutate() {
	if c.tr != nil {
		root := c.tr.operation("mutation", "")
		defer c.tr.end(root)
	}
	c.mutator.Steps(1)
	c.muts++
}

func relAnswer(rel *nested.Relation) answer {
	var rows [][]string
	for _, t := range rel.Sorted() {
		row := make([]string, t.Arity())
		for i := range row {
			row[i] = t.At(i).String()
		}
		rows = append(rows, row)
	}
	return newAnswer(rows)
}

// replayed is what a replay's timed rounds did.
type replayed struct {
	recs           []opRecord
	wall           time.Duration
	mallocs, bytes uint64 // heap allocations of the whole process
}

// replay runs the warm-up plus the given number of rounds on a composed
// system. Answers are hashed after the timed rounds, so the allocation
// counts cover the system's work and little of the replay's own.
func (c *composed) replay(ctx context.Context, round []op, subs []*query, rounds int) (*replayed, error) {
	for _, q := range subs {
		if _, err := c.reg.Subscribe(q.text()); err != nil {
			return nil, err
		}
	}
	for _, o := range round {
		if o.kind == opQuery {
			if _, _, err := c.query(ctx, o.text); err != nil {
				return nil, err
			}
		}
	}
	var rels []*nested.Relation
	var accs []int
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, o := range round {
			if o.kind == opMutate {
				c.mutate()
				continue
			}
			rel, acc, err := c.query(ctx, o.text)
			if err != nil {
				return nil, err
			}
			rels = append(rels, rel)
			accs = append(accs, acc)
		}
	}
	out := &replayed{wall: time.Since(t0)}
	runtime.ReadMemStats(&m1)
	out.mallocs, out.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	for i, rel := range rels {
		out.recs = append(out.recs, opRecord{accs[i], relAnswer(rel).hash()})
	}
	return out, nil
}

// runTraced makes the untraced and the traced in-process replays of the
// end-to-end run's sequence and derives the per-layer metrics.
func runTraced(rc runConfig, res *runResult) (map[string]float64, error) {
	ctx := context.Background()
	rounds := (res.rounds + 2) / 3
	if rounds < 1 {
		rounds = 1
	}
	want := res.records
	perRound := len(want) / res.rounds
	want = want[:rounds*perRound]
	check := func(label string, got []opRecord) {
		if len(got) != len(want) {
			res.problem("%s replay: %d queries, end-to-end run %d", label, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				res.problem("%s replay: query %d (%s) gave %d accesses, answer %x; end-to-end %d, %x",
					label, i, queryAt(res.round, i), got[i].accesses, got[i].answer, want[i].accesses, want[i].answer)
				return
			}
		}
	}

	plain, err := compose(rc, false)
	if err != nil {
		return nil, err
	}
	pr, err := plain.replay(ctx, res.round, rc.wl.subs, rounds)
	if err != nil {
		return nil, err
	}
	check("untraced", pr.recs)

	tc, err := compose(rc, true)
	if err != nil {
		return nil, err
	}
	regBefore := standing.Counters{}
	if tc.reg != nil {
		regBefore = tc.reg.Counters()
	}
	tr, err := tc.replay(ctx, res.round, rc.wl.subs, rounds)
	if err != nil {
		return nil, err
	}
	check("traced", tr.recs)

	// Spans of the crawl and the subscriptions carry qid 0; the warm-up's
	// operations are numbered too, and the metrics cover the timed rounds
	// only: the last len(round)*rounds operations.
	firstQID := tc.tr.qid - rounds*len(res.round) + 1
	nq := float64(len(tr.recs))
	out := layerMetrics(tc.tr, firstQID, nq)
	out["stats.crawl_s"] = tc.crawl.Seconds()
	out["runtime.allocs_per_query"] = float64(pr.mallocs) / nq
	out["runtime.alloc_kb_per_query"] = float64(pr.bytes) / 1024 / nq
	out["trace.overhead_pct"] = 100 * (tr.wall.Seconds() - pr.wall.Seconds()) / pr.wall.Seconds()
	out["hypertext.wrap_us_per_page"] = wrapCost(tc)
	out["standing.deltas_per_mutation"] = 0
	if tc.reg != nil && tc.muts > 0 {
		// The warm-up has no mutations, so every delta past the initial
		// snapshots belongs to the timed rounds' mutations.
		deltas := tc.reg.Counters().Deltas - regBefore.Deltas - len(rc.wl.subs)
		out["standing.deltas_per_mutation"] = float64(deltas) / float64(tc.muts)
	}
	if err := writeSpans(filepath.Join(rc.outDir, "spans-"+rc.wl.name+".jsonl"), tc.tr); err != nil {
		return nil, err
	}
	return out, nil
}

// queryAt returns the text of the i-th query of the repeated round.
func queryAt(round []op, i int) string {
	var qs []string
	for _, o := range round {
		if o.kind == opQuery {
			qs = append(qs, o.text)
		}
	}
	return qs[i%len(qs)]
}

// selfTime is a span's duration minus the union of its children's.
func selfTime(t *tracer, s *span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range s.kids {
		c := t.spans[k]
		a, b := c.Start, c.End
		if a < s.Start {
			a = s.Start
		}
		if b > s.End {
			b = s.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = s.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		covered += v.b - v.a
		end = v.b
	}
	return s.dur() - time.Duration(covered)
}

// layerMetrics aggregates the spans of the timed operations.
func layerMetrics(t *tracer, firstQID int, queries float64) map[string]float64 {
	sum := map[string][]float64{}
	add := func(k string, v float64) { sum[k] = append(sum[k], v) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	msf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	reanswers := 0
	getBytes := 0
	for i := range t.spans {
		s := &t.spans[i]
		if s.QID < firstQID {
			continue
		}
		switch s.Name {
		case "cq.parse":
			add("cq.parse_us", us(s.dur()))
		case "overload.acquire":
			add("overload.acquire_wait_us", us(s.dur()))
		case "plancache.prepare":
			if s.Flag {
				add("plancache.hit_us", us(s.dur()))
			} else {
				add("plancache.miss_ms", msf(s.dur()))
			}
		case "optimizer.optimize":
			add("optimizer.optimize_ms", msf(s.dur()))
			add("optimizer.candidates", float64(s.N))
		case "nalg.check":
			add("nalg.check_us", us(s.dur()))
		case "nalg.eval":
			add("nalg.eval_self_ms", msf(selfTime(t, s)))
		case "nalg.source":
			gets, heads := 0, 0
			for _, k := range s.kids {
				switch t.spans[k].Name {
				case "guard.get":
					gets++
				case "guard.head":
					heads++
				}
			}
			per := us(s.dur()) / float64(s.N)
			switch {
			case gets == 0 && heads == 0:
				add("pagecache.hit_us", per)
			case gets == s.N && heads == 0:
				add("pagecache.fetch_us", per)
			case heads == s.N && gets == 0:
				add("pagecache.revalidate_us", per)
			}
		case "guard.get":
			add("guard.overhead_us", us(selfTime(t, s)))
		case "site.get":
			add("site.get_us", us(s.dur()))
			getBytes += s.N
		case "pagecache.invalidate":
			add("pagecache.invalidate_us", us(s.dur()))
		case "standing.reanswer":
			add("standing.reanswer_ms", msf(s.dur()))
			reanswers++
		}
	}
	out := map[string]float64{}
	for _, k := range []string{
		"cq.parse_us", "overload.acquire_wait_us", "plancache.hit_us", "plancache.miss_ms",
		"optimizer.optimize_ms", "optimizer.candidates", "nalg.check_us", "nalg.eval_self_ms",
		"pagecache.hit_us", "pagecache.fetch_us", "pagecache.revalidate_us", "guard.overhead_us",
		"site.get_us", "pagecache.invalidate_us", "standing.reanswer_ms",
	} {
		out[k] = mean(sum[k])
	}
	out["site.kb_per_get"] = ratio(float64(getBytes)/1024, float64(len(sum["site.get_us"])))
	mutations := 0
	for i := range t.spans {
		if t.spans[i].QID >= firstQID && t.spans[i].Name == "mutation" {
			mutations++
		}
	}
	out["standing.reanswers_per_mutation"] = ratio(float64(reanswers), float64(mutations))
	return out
}

// wrapCost times hypertext.WrapPage on the pages the origin served during
// the traced replay, in microseconds per page.
func wrapCost(c *composed) float64 {
	c.tr.mu.Lock()
	pages := c.tr.pages
	c.tr.mu.Unlock()
	if len(pages) == 0 {
		return 0
	}
	urls := make([]string, 0, len(pages))
	for u := range pages {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(urls), func(i, j int) { urls[i], urls[j] = urls[j], urls[i] })
	scheme := c.eng.Views.Scheme
	const reps = 5
	n := 0
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, u := range urls {
			name, ok := c.ms.SchemeOf(u)
			if !ok {
				continue
			}
			if _, err := hypertext.WrapPage(scheme.Page(name), u, pages[u]); err == nil { //lint:allow fetchgate timing the wrapper on pages the traced replay already fetched
				n++
			}
		}
	}
	return ratio(float64(time.Since(t0))/float64(time.Microsecond), float64(n))
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, t *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
