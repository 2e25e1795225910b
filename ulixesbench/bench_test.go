package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildServer compiles ulixesd once for the tests that drive it.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ulixesd")
	out, err := exec.Command("go", "build", "-o", bin, "ulixes/cmd/ulixesd").CombinedOutput()
	if err != nil {
		t.Fatalf("build ulixesd: %v\n%s", err, out)
	}
	return bin
}

var layerNames = []string{
	"engine.plan_ms", "engine.exec_ms", "ulixesd.overhead_ms", "plancache.hit_ratio",
	"pagecache.hit_ratio", "pagecache.evictions_per_query", "gets_per_query", "heads_per_query",
	"mutate_p50_ms", "delta_lag_p50_ms", "stats.crawl_s", "cq.parse_us", "overload.acquire_wait_us",
	"plancache.hit_us", "nalg.check_us", "nalg.eval_self_ms", "plancache.miss_ms",
	"optimizer.optimize_ms", "optimizer.candidates", "pagecache.hit_us", "pagecache.fetch_us",
	"pagecache.revalidate_us", "guard.overhead_us", "site.get_us", "site.kb_per_get",
	"hypertext.wrap_us_per_page", "pagecache.invalidate_us", "standing.reanswer_ms",
	"standing.reanswers_per_mutation", "standing.deltas_per_mutation", "runtime.allocs_per_query",
	"runtime.alloc_kb_per_query", "trace.overhead_pct", "host.steal_pct", "client.qps_wall",
	"client.p50_wall_ms", "client.p99_wall_ms", "server.cpu_median_ms", "host.calibration_us",
	"client.setup_wall_s",
}

// TestShortWorkloads runs every workload on tiny sites for one round, end
// to end and traced, and requires every check to pass and every metric to
// be reported.
func TestShortWorkloads(t *testing.T) {
	bin := buildServer(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			rc := runConfig{wl: wl, seed: 7, short: true, bin: bin, outDir: t.TempDir(), setups: 1}
			res, err := runE2E(rc)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted != len(res.round) {
				t.Fatalf("attempted %d, failed %d; round has %d operations", res.attempted, res.failed, len(res.round))
			}
			for name := range e2eUnits {
				// CPU time is read in 10ms ticks, which one tiny round may
				// not reach.
				if v, ok := res.e2e[name]; !ok || v < 0 || (v == 0 && name != "server_cpu_ms_per_query") {
					t.Errorf("end-to-end metric %s = %v", name, v)
				}
			}
			layer, err := runTraced(rc, res)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range res.layer {
				layer[k] = v
			}
			for _, name := range layerNames {
				if _, ok := layer[name]; !ok {
					t.Errorf("per-layer metric %s missing", name)
				}
			}
			if len(layer) != len(layerNames) {
				t.Errorf("%d per-layer metrics, want %d", len(layer), len(layerNames))
			}
			if len(res.problems) > 0 {
				t.Fatalf("checks failed:\n%s", strings.Join(res.problems, "\n"))
			}
		})
	}
}

// TestCorruptedAnswerFails serves one correct and one corrupted /query
// response and requires the oracle check to flag only the corrupted one.
func TestCorruptedAnswerFails(t *testing.T) {
	wl, err := findWorkload("warm-repeat")
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorld(wl, shortSizes)
	if err != nil {
		t.Fatal(err)
	}
	q := q1("p", "Professor", []string{"PName", "Rank"}, "Rank", "Full")
	want, err := w.ext.eval(q)
	if err != nil || len(want) < 2 {
		t.Fatalf("oracle: %v, %d rows", err, len(want))
	}
	rows := func(a answer) string {
		var parts []string
		for _, k := range a {
			parts = append(parts, fmt.Sprintf("[%q,%q]", strings.Split(k, "\x1f")[0], strings.Split(k, "\x1f")[1]))
		}
		return strings.Join(parts, ",")
	}
	corrupt := append(answer{}, want...)
	corrupt[0] = strings.Replace(corrupt[0], "Full", "Assistant", 1)
	for _, tc := range []struct {
		name  string
		rows  answer
		wrong bool
	}{{"correct", want, false}, {"corrupted", corrupt, true}} {
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(rw, `{"rows":[%s],"stats":{"accesses":21}}`, rows(tc.rows))
		}))
		res := &runResult{}
		s := &session{w: w, res: res, want: map[string]answer{}, cold: map[string]int{}, byPos: make([][]float64, 1),
			cl: newClient(strings.TrimPrefix(srv.URL, "http://"))}
		err := s.runQuery(context.Background(), op{kind: opQuery, q: q, text: q.text()}, 0, true)
		s.cl.close()
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.problems) > 0; got != tc.wrong {
			t.Errorf("%s answer: check failed = %v (%v), want %v", tc.name, got, res.problems, tc.wrong)
		}
	}
}

// TestOracleExtents checks the oracle's extents against the generator's
// bookkeeping.
func TestOracleExtents(t *testing.T) {
	wl, _ := findWorkload("warm-repeat")
	w, err := newWorld(wl, fullSizes)
	if err != nil {
		t.Fatal(err)
	}
	for rel, n := range map[string]int{"Professor": 20, "Course": 50, "CourseInstructor": 50, "ProfDept": 20, "Dept": 3} {
		if got := len(w.ext[rel].rows); got != n {
			t.Errorf("%s: %d rows, want %d", rel, got, n)
		}
	}
	for c, p := range w.univ.InstructorOf {
		q := q1("ci", "CourseInstructor", []string{"PName"}, "CName", fmt.Sprintf("Course %03d", c))
		a, err := w.ext.eval(q)
		if err != nil || len(a) != 1 || a[0] != fmt.Sprintf("Prof. %03d", p) {
			t.Fatalf("instructor of course %d: %v %v, want Prof. %03d", c, a, err, p)
		}
	}
}

// TestRoundsAreSeeded checks that a seed fixes the round and that another
// seed changes it.
func TestRoundsAreSeeded(t *testing.T) {
	for _, wl := range workloads {
		w, err := newWorld(wl, fullSizes)
		if err != nil {
			t.Fatal(err)
		}
		text := func(seed int64) string {
			var sb strings.Builder
			for _, o := range wl.build(rand.New(rand.NewSource(seed)), w, false) {
				sb.WriteString(o.text + ";")
			}
			return sb.String()
		}
		if text(3) != text(3) || text(3) == text(4) {
			t.Errorf("%s: rounds are not a function of the seed", wl.name)
		}
	}
}

// TestQuartilesMatchPython pins the steadiness report's quartiles to
// Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository root
// lists exactly the workloads and metrics this program reports, with the
// units it reports them in.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(bj.EndToEnd) != len(e2eUnits) {
		t.Errorf("%d end-to-end metrics listed, %d reported", len(bj.EndToEnd), len(e2eUnits))
	}
	for _, x := range bj.EndToEnd {
		if e2eUnits[x.Name] != x.Unit {
			t.Errorf("end-to-end %s: listed unit %q, reported %q", x.Name, x.Unit, e2eUnits[x.Name])
		}
	}
	if len(bj.PerLayer) != len(layerNames) {
		t.Errorf("%d per-layer metrics listed, %d reported", len(bj.PerLayer), len(layerNames))
	}
	listed := map[string]bool{}
	for _, x := range bj.PerLayer {
		listed[x.Name] = true
		if layerUnit(x.Name) != x.Unit {
			t.Errorf("per-layer %s: listed unit %q, reported %q", x.Name, x.Unit, layerUnit(x.Name))
		}
	}
	for _, n := range layerNames {
		if !listed[n] {
			t.Errorf("per-layer %s reported but not listed", n)
		}
	}
}
