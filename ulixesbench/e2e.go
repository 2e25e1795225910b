package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ulixes/internal/sitegen"
)

// runConfig is one benchmark run.
type runConfig struct {
	wl      *workload
	seed    int64
	seconds float64
	short   bool
	bin     string // ulixesd binary
	outDir  string // where server logs go
	setups  int    // server start-ups; setup_s is their median
	// setupFor repeats set-ups beyond setups, up to maxSetups, until they
	// took this long together, so cheap set-ups are repeated more and
	// their median holds.
	setupFor   time.Duration
	minQueries int // the timed phase runs until both seconds and this many queries
}

func (rc runConfig) sizes() sizes {
	if rc.short {
		return shortSizes
	}
	return fullSizes
}

// opRecord is what one timed query returned, for the traced run's fidelity
// check.
type opRecord struct {
	accesses int
	answer   uint64
}

// runResult is the outcome of one end-to-end run.
type runResult struct {
	e2e       map[string]float64 // end-to-end metrics
	layer     map[string]float64 // per-layer metrics taken from the same run
	attempted int
	failed    int
	rounds    int
	problems  []string   // failed checks; any makes the run incorrect
	round     []op       // the replayed round
	records   []opRecord // per timed query, in order
}

func (r *runResult) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// server is one ulixesd subprocess.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed when stderr reaches EOF
}

func startServer(bin string, args []string, logPath string) (*server, error) {
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	// The server must not outlive ulixesbench, even when ulixesbench is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start ulixesd: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, " on http://"); i >= 0 && strings.Contains(line, "serving") {
				f := strings.Fields(line[i+len(" on http://"):])
				select {
				case addr <- f[0]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		s.base = a
	case <-s.done:
		_ = cmd.Wait()
		return nil, fmt.Errorf("ulixesd exited during start-up; see %s", logPath)
	case <-time.After(120 * time.Second):
		s.stop()
		return nil, errors.New("ulixesd did not start within 120s")
	}
	return s, nil
}

// stop asks the server to drain and waits for it, killing it if the drain
// hangs.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-exited
	}
	<-s.done
}

// cpuTicks reads the process's user+system CPU time in clock ticks.
func (s *server) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3,
	// utime and stime are fields 14 and 15.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat")
	}
	return ut + st, nil
}

// hostTicks reads the machine's total and stolen CPU ticks from /proc/stat.
func hostTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// maxSetups caps the set-ups runConfig.setupFor asks for.
const maxSetups = 9

// calibrate times a fixed piece of Go work that does not involve the
// program — formatting, hashing into a map and sorting a few thousand short
// strings, the kind of work the server does most — and returns how long it
// took. The host's speed for such work varied by a factor of two between
// runs minutes apart (server CPU per query, set-up time and latency all
// moved together), so the timing metrics are scaled to a reference speed:
// the run's fastest calibration against calibrationRef.
func calibrate() time.Duration {
	t0 := time.Now()
	m := make(map[string]int, 2048)
	keys := make([]string, 0, 2048)
	for i := 0; i < 2048; i++ {
		k := strconv.Itoa(i*7919) + "/calibration/" + strconv.Itoa(i)
		m[k] = i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		calibrationSink += m[k] + len(k)
	}
	return time.Since(t0)
}

// calibrationSink keeps the calibration's work from being optimized away.
var calibrationSink int

// calibrationRef is the calibration's duration at the reference speed: the
// fastest calibrations measured on the host the reference figures in
// README.md come from.
const calibrationRef = 500 * time.Microsecond

// windowLen is the shortest window over which throughput and CPU time are
// taken.
const windowLen = time.Second

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTick = 10 * time.Millisecond

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM")
}

// client is one HTTP connection to the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: "http://" + base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 200 response.
func (c *client) do(ctx context.Context, method, path, body string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req) //lint:allow fetchgate the client talks to ulixesd over HTTP, not to a site
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

func (c *client) getJSON(ctx context.Context, method, path, body string, v any) error {
	b, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// queryResp is the part of a /query response the benchmark reads.
type queryResp struct {
	Rows  [][]string `json:"rows"`
	Stats struct {
		Accesses int     `json:"accesses"`
		WallMs   float64 `json:"wallMs"`
		PlanMs   float64 `json:"planMs"`
	} `json:"stats"`
	Degraded        bool     `json:"degraded"`
	DeadlineExpired bool     `json:"deadlineExpired"`
	StalePages      []string `json:"stalePages"`
}

// statsResp is the part of /stats the benchmark reads.
type statsResp struct {
	Fetches          int    `json:"fetches"`
	Hits             int    `json:"hits"`
	Revalidations    int    `json:"revalidations"`
	LightConnections int    `json:"lightConnections"`
	Evictions        int    `json:"evictions"`
	Stale            int    `json:"stale"`
	PlanHits         uint64 `json:"planHits"`
	PlanMisses       uint64 `json:"planMisses"`
}

func (s statsResp) accesses() int { return s.Fetches + s.Hits + s.Revalidations + s.Stale }

type delta struct {
	Seq     int      `json:"seq"`
	Added   []string `json:"added"`
	Removed []string `json:"removed"`
}

// fold applies deltas to a subscription's current answer.
func fold(cur map[string]bool, ds []delta) {
	for _, d := range ds {
		for _, r := range d.Removed {
			delete(cur, r)
		}
		for _, a := range d.Added {
			cur[a] = true
		}
	}
}

// sub is one standing query as the benchmark tracks it.
type sub struct {
	q        *query
	id       int
	consumed int             // last delta seq read
	expected int             // deltas the oracle expects so far
	cur      map[string]bool // folded deltas
	last     answer          // the oracle's answer at the last delta
}

// session is the state of one run against one server.
type session struct {
	rc   runConfig
	w    *world
	res  *runResult
	srv  *server
	cl   *client
	subs []*sub
	want map[string]answer // non-mutating workloads: expected answer per query text
	cold map[string]int    // accesses of each text's first execution
	mirr *sitegen.Mutator  // churn-feed: the oracle's copy of /mutate
	// mutating is set when the round changes the site, so answers cannot
	// be cached per text and C(E) may legitimately differ between runs
	// of one text.
	mutating bool

	// Timed-phase measurements.
	lat, plan, exec, overhead []float64   // per query, ms
	byPos                     [][]float64 // latencies by position in the round
	mutLat                    []float64   // per mutation, ms
	accesses                  int
	queries                   int
	sentAt                    map[int]time.Time // watched subscription seq → /mutate send time
}

// expect returns the oracle's answer for a query.
func (s *session) expect(o op) (answer, error) {
	if a, ok := s.want[o.text]; ok {
		return a, nil
	}
	a, err := s.w.ext.eval(o.q)
	if err != nil {
		return nil, err
	}
	if !s.mutating {
		s.want[o.text] = a
	}
	return a, nil
}

// runQuery sends one query and checks its response.
func (s *session) runQuery(ctx context.Context, o op, pos int, timed bool) error {
	t0 := time.Now()
	b, err := s.cl.do(ctx, http.MethodPost, "/query", o.text)
	lat := time.Since(t0)
	if err != nil {
		return err
	}
	var r queryResp
	if err := json.Unmarshal(b, &r); err != nil {
		return fmt.Errorf("decode /query: %w", err)
	}
	want, err := s.expect(o)
	if err != nil {
		return err
	}
	got := newAnswer(r.Rows)
	if !got.equal(want) {
		s.res.problem("wrong answer to %q: got %d rows, oracle %d", o.text, len(got), len(want))
	}
	if r.Degraded || r.DeadlineExpired || len(r.StalePages) > 0 {
		s.res.problem("degraded or stale answer to %q", o.text)
	}
	if !s.mutating {
		if c, ok := s.cold[o.text]; !ok {
			s.cold[o.text] = r.Stats.Accesses
		} else if c != r.Stats.Accesses {
			s.res.problem("C(E) moved for %q: %d accesses, first execution %d", o.text, r.Stats.Accesses, c)
		}
	}
	if !timed {
		return nil
	}
	ms := float64(lat) / float64(time.Millisecond)
	s.lat = append(s.lat, ms)
	s.byPos[pos] = append(s.byPos[pos], ms)
	s.plan = append(s.plan, r.Stats.PlanMs)
	s.exec = append(s.exec, r.Stats.WallMs)
	s.overhead = append(s.overhead, ms-r.Stats.PlanMs-r.Stats.WallMs)
	s.accesses += r.Stats.Accesses
	s.queries++
	s.res.records = append(s.res.records, opRecord{r.Stats.Accesses, got.hash()})
	return nil
}

// runMutate applies one /mutate step and the same step on the mirror.
func (s *session) runMutate(ctx context.Context, pos int) error {
	// The oracle decides which subscriptions this step changes before the
	// request is sent, so the watched one's delta can be timed from here.
	m := s.mirr.Step()
	s.w.refresh()
	for i, sb := range s.subs {
		a, err := s.w.ext.eval(sb.q)
		if err != nil {
			return err
		}
		if !a.equal(sb.last) {
			sb.expected++
			sb.last = a
			if i == 0 {
				s.sentAt[sb.expected] = time.Now()
			}
		}
	}
	t0 := time.Now()
	b, err := s.cl.do(ctx, http.MethodPost, "/mutate?n=1", "")
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	s.mutLat = append(s.mutLat, ms)
	s.byPos[pos] = append(s.byPos[pos], ms)
	if err != nil {
		return err
	}
	var got []struct {
		Op   string   `json:"op"`
		URLs []string `json:"urls"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		return fmt.Errorf("decode /mutate: %w", err)
	}
	if len(got) != 1 || got[0].Op != m.Op.String() || strings.Join(got[0].URLs, " ") != strings.Join(m.URLs, " ") {
		s.res.problem("/mutate applied %v, the mirror %s %v", got, m.Op, m.URLs)
	}
	return nil
}

// drain reads the deltas the oracle expects on the subscriptions that are
// not long-polled.
func (s *session) drain(ctx context.Context) error {
	for _, sb := range s.subs[1:] {
		if sb.consumed >= sb.expected {
			continue
		}
		cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		var ds []delta
		err := s.cl.getJSON(cctx, http.MethodGet, fmt.Sprintf("/watch?id=%d&after=%d", sb.id, sb.consumed), "", &ds)
		cancel()
		if err != nil {
			return fmt.Errorf("watch %d: %w", sb.id, err)
		}
		fold(sb.cur, ds)
		for _, d := range ds {
			sb.consumed = d.Seq
		}
	}
	return nil
}

// checkFolds compares every subscription's folded deltas with the oracle.
func (s *session) checkFolds() {
	for _, sb := range s.subs {
		attrs := make([]string, len(sb.q.proj))
		for i, c := range sb.q.proj {
			attrs[i] = c.attr
		}
		want := make(map[string]bool)
		for _, k := range sb.last {
			want[standingRow(attrs, k)] = true
		}
		ok := len(want) == len(sb.cur)
		for k := range want {
			ok = ok && sb.cur[k]
		}
		if !ok {
			s.res.problem("subscription %q: folded deltas hold %d rows, oracle %d", sb.q.text(), len(sb.cur), len(want))
		}
	}
}

// setUp starts a server, registers the standing queries and warms the
// store and the plan cache with one untimed pass over the round.
func (s *session) setUp(ctx context.Context, logPath string) error {
	args := serverArgs(s.rc.wl, s.rc.sizes(), s.rc.seed, s.rc.short)
	srv, err := startServer(s.rc.bin, args, logPath)
	if err != nil {
		return err
	}
	s.srv = srv
	s.cl = newClient(srv.base)
	for i := 0; ; i++ {
		if _, err := s.cl.do(ctx, http.MethodGet, "/healthz", ""); err == nil {
			break
		} else if i > 200 {
			return fmt.Errorf("healthz: %w", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	s.subs = nil
	for _, q := range s.rc.wl.subs {
		var r struct {
			ID int `json:"id"`
		}
		if err := s.cl.getJSON(ctx, http.MethodPost, "/subscribe", q.text(), &r); err != nil {
			return err
		}
		a, err := s.w.ext.eval(q)
		if err != nil {
			return err
		}
		// The initial snapshot is the subscription's first delta.
		s.subs = append(s.subs, &sub{q: q, id: r.ID, expected: 1, last: a, cur: make(map[string]bool)})
	}
	s.cold = make(map[string]int)
	for _, o := range s.res.round {
		if o.kind != opQuery {
			continue
		}
		if err := s.runQuery(ctx, o, -1, false); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// watcher long-polls the first subscription on the second connection,
// folding its deltas and stamping when each arrived.
type watcher struct {
	mu   sync.Mutex
	recv map[int]time.Time // guarded by mu
	last int               // guarded by mu
	err  error             // guarded by mu
}

func (wt *watcher) run(ctx context.Context, cl *client, sb *sub) {
	after := sb.consumed
	for ctx.Err() == nil {
		var ds []delta
		err := cl.getJSON(ctx, http.MethodGet, fmt.Sprintf("/watch?id=%d&after=%d", sb.id, after), "", &ds)
		now := time.Now()
		wt.mu.Lock()
		if err != nil {
			if ctx.Err() == nil {
				wt.err = err
			}
			wt.mu.Unlock()
			return
		}
		fold(sb.cur, ds)
		for _, d := range ds {
			wt.recv[d.Seq] = now
			after = d.Seq
		}
		wt.last = after
		wt.mu.Unlock()
	}
}

// runE2E is one end-to-end run: set-ups, warm-up, then whole rounds of the
// seeded operation sequence until the run length is reached.
func runE2E(rc runConfig) (*runResult, error) {
	ctx := context.Background()
	res := &runResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	w, err := newWorld(rc.wl, rc.sizes())
	if err != nil {
		return nil, err
	}
	res.round = rc.wl.build(rand.New(rand.NewSource(rc.seed)), w, rc.short)
	s := &session{rc: rc, w: w, res: res, want: make(map[string]answer), sentAt: make(map[int]time.Time)}
	for _, o := range res.round {
		s.mutating = s.mutating || o.kind == opMutate
	}

	// Each set-up's server reports its peak RSS: the earlier ones after
	// their warm-up, the kept one after the timed phase.
	var setups, setupWall, peaks []float64 // set-ups scaled and as measured
	var spent time.Duration
	var cals []time.Duration // the fastest calibration after each set-up, and three per round
	more := func(i int) bool { return i < rc.setups || (spent < rc.setupFor && i < maxSetups) }
	for i := 0; more(i); i++ {
		t0 := time.Now()
		err := s.setUp(ctx, filepath.Join(rc.outDir, fmt.Sprintf("ulixesd-%s-%d.log", rc.wl.name, i)))
		took := time.Since(t0)
		if err != nil {
			if s.srv != nil {
				s.srv.stop()
			}
			return nil, err
		}
		spent += took
		setupWall = append(setupWall, took.Seconds())
		// Each set-up is scaled by the host's speed right after it: set-ups
		// are seconds apart, and the host's speed drifts on that scale.
		fastest := calibrate()
		for j := 0; j < 4; j++ {
			fastest = min(fastest, calibrate())
		}
		cals = append(cals, fastest)
		setups = append(setups, took.Seconds()*float64(calibrationRef)/float64(fastest))
		if more(i + 1) {
			rss, err := s.srv.peakRSSMB()
			s.cl.close()
			s.srv.stop()
			if err != nil {
				return nil, err
			}
			peaks = append(peaks, rss)
		}
	}
	defer s.srv.stop()
	defer s.cl.close()

	var wt *watcher
	var wcl *client
	stopWatch := func() {}
	var watchDone chan struct{}
	if len(s.subs) > 0 {
		s.mirr = sitegen.NewMutator(w.univ, &mirrorSite{w.state}, rc.seed)
		if err := s.drain(ctx); err != nil {
			return nil, err
		}
		// The watched subscription's snapshot is read here too, so the
		// long-poll only ever waits for deltas of timed mutations.
		var ds []delta
		if err := s.cl.getJSON(ctx, http.MethodGet, fmt.Sprintf("/watch?id=%d&after=0", s.subs[0].id), "", &ds); err != nil {
			return nil, err
		}
		fold(s.subs[0].cur, ds)
		s.subs[0].consumed = ds[len(ds)-1].Seq
		wt = &watcher{recv: make(map[int]time.Time)}
		wcl = newClient(s.srv.base)
		wctx, cancel := context.WithCancel(ctx)
		defer cancel()
		stopWatch = cancel
		watchDone = make(chan struct{})
		go func() {
			defer close(watchDone)
			wt.run(wctx, wcl, s.subs[0])
		}()
	}

	var st0, st1 statsResp
	if err := s.cl.getJSON(ctx, http.MethodGet, "/stats", "", &st0); err != nil {
		return nil, err
	}
	cpu0, err := s.srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	s.byPos = make([][]float64, len(res.round))
	host0, steal0 := hostTicks()
	// Throughput and CPU are also taken per window of whole rounds lasting
	// at least windowLen, so a burst of steal time on the host moves one
	// window, not the run.
	var winQPS, winCPU []float64
	t0 := time.Now()
	wStart, wCPU, wQueries := t0, cpu0, 0
	for {
		for i, o := range res.round {
			res.attempted++
			var err error
			if o.kind == opMutate {
				err = s.runMutate(ctx, i)
			} else {
				err = s.runQuery(ctx, o, i, true)
			}
			if err != nil {
				res.failed++
				res.problem("%v", err)
			}
		}
		res.rounds++
		for i := 0; i < 3; i++ {
			cals = append(cals, calibrate())
		}
		if len(s.subs) > 1 {
			if err := s.drain(ctx); err != nil {
				return nil, err
			}
		}
		if w := time.Since(wStart); w >= windowLen {
			cpu, err := s.srv.cpuTicks()
			if err != nil {
				return nil, err
			}
			n := float64(s.queries - wQueries)
			winQPS = append(winQPS, n/w.Seconds())
			winCPU = append(winCPU, float64(cpu-wCPU)*float64(clockTick)/float64(time.Millisecond)/n)
			wStart, wCPU, wQueries = time.Now(), cpu, s.queries
		}
		el := time.Since(t0).Seconds()
		if (el >= rc.seconds && s.queries >= rc.minQueries) || el > 150 {
			break
		}
	}
	elapsed := time.Since(t0)
	host1, steal1 := hostTicks()
	cpu1, err := s.srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	if len(winQPS) == 0 {
		// A run shorter than one window (the short test mode) has one.
		n := float64(s.queries)
		winQPS = append(winQPS, n/elapsed.Seconds())
		winCPU = append(winCPU, float64(cpu1-cpu0)*float64(clockTick)/float64(time.Millisecond)/n)
	}
	if err := s.cl.getJSON(ctx, http.MethodGet, "/stats", "", &st1); err != nil {
		return nil, err
	}
	rss, err := s.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	peaks = append(peaks, rss)

	var lags []float64
	if wt != nil {
		// Wait until every delta the oracle expects on the watched
		// subscription has arrived, then stop the long-poll.
		want := s.subs[0].expected
		deadline := time.Now().Add(10 * time.Second)
		for {
			wt.mu.Lock()
			last, werr := wt.last, wt.err
			wt.mu.Unlock()
			if last >= want || werr != nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		stopWatch()
		<-watchDone
		wcl.close()
		if wt.err != nil {
			res.problem("watch: %v", wt.err)
		}
		s.subs[0].consumed = wt.last
		for seq, sent := range s.sentAt {
			if got, ok := wt.recv[seq]; ok {
				lags = append(lags, float64(got.Sub(sent))/float64(time.Millisecond))
			}
		}
		if len(lags) < len(s.sentAt) {
			res.problem("watched subscription delivered %d of %d deltas", len(lags), len(s.sentAt))
		}
		s.checkFolds()
	}

	if s.queries == 0 {
		return nil, errors.New("no query completed")
	}
	q := float64(s.queries)
	if len(s.subs) == 0 && s.accesses != st1.accesses()-st0.accesses() {
		res.problem("summed per-query accesses %d, store counted %d", s.accesses, st1.accesses()-st0.accesses())
	}
	// speed > 1 when the host ran slower than the reference speed.
	fastest := cals[0]
	for _, c := range cals {
		if c < fastest {
			fastest = c
		}
	}
	speed := float64(fastest) / float64(calibrationRef)
	res.layer["host.calibration_us"] = float64(fastest) / float64(time.Microsecond)
	res.layer["client.setup_wall_s"] = median(setupWall)
	res.e2e["setup_s"] = median(setups)
	// The timing metrics are steal-robust: each operation of the round is
	// taken at its fastest repetition over the run's rounds — its latency
	// when the host does not steal the CPU from under it — and the round's
	// closed-loop throughput follows from those latencies. The plain
	// wall-clock figures go to the per-layer report.
	var quickQ []float64
	roundMs := 0.0
	for i, l := range s.byPos {
		if len(l) == 0 {
			continue
		}
		v := sorted(l)[0]
		roundMs += v
		if res.round[i].kind == opQuery {
			quickQ = append(quickQ, v)
		}
	}
	res.e2e["qps"] = float64(len(quickQ)) / roundMs * 1000 * speed
	res.e2e["p50_ms"] = median(quickQ) / speed
	res.e2e["server_cpu_ms_per_query"] = sorted(winCPU)[0] / speed
	res.layer["client.qps_wall"] = median(winQPS)
	res.layer["client.p50_wall_ms"] = percentile(s.lat, 50)
	res.layer["client.p99_wall_ms"] = percentile(s.lat, 99)
	res.layer["server.cpu_median_ms"] = median(winCPU)

	res.e2e["server_rss_peak_mb"] = median(peaks)
	res.e2e["accesses_per_query"] = float64(s.accesses) / q

	res.layer["host.steal_pct"] = 100 * ratio(float64(steal1-steal0), float64(host1-host0))
	res.layer["engine.plan_ms"] = mean(s.plan)
	res.layer["engine.exec_ms"] = mean(s.exec)
	res.layer["ulixesd.overhead_ms"] = mean(s.overhead)
	res.layer["plancache.hit_ratio"] = ratio(float64(st1.PlanHits-st0.PlanHits), float64(st1.PlanHits-st0.PlanHits+st1.PlanMisses-st0.PlanMisses))
	res.layer["pagecache.hit_ratio"] = ratio(float64(st1.Hits-st0.Hits), float64(st1.accesses()-st0.accesses()))
	res.layer["pagecache.evictions_per_query"] = float64(st1.Evictions-st0.Evictions) / q
	res.layer["gets_per_query"] = float64(st1.Fetches-st0.Fetches) / q
	res.layer["heads_per_query"] = float64(st1.LightConnections-st0.LightConnections) / q
	res.layer["mutate_p50_ms"] = percentile(s.mutLat, 50)
	res.layer["delta_lag_p50_ms"] = percentile(lags, 50)
	return res, nil
}
