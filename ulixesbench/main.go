// Command ulixesbench is the end-to-end benchmark of ulixesd. It starts the
// server as a subprocess on one of four named workloads, replays a seeded
// operation sequence over HTTP in whole rounds, checks every answer against
// an oracle computed from the site generator, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as one JSON object on
// the last line of standard output.
//
//	ulixesbench -ulixesd PATH -workload NAME -seed N -seconds S -trace 0|1
//	ulixesbench -ulixesd PATH -workload NAME -steady 10 -seconds S
//
// See README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits are the end-to-end metrics in BENCHMARK.json, with units.
var e2eUnits = map[string]string{
	"setup_s":                 "s",
	"qps":                     "1/s",
	"p50_ms":                  "ms",
	"server_cpu_ms_per_query": "ms",
	"server_rss_peak_mb":      "MB",
	"accesses_per_query":      "count",
}

func main() {
	wlName := flag.String("workload", "", "workload: warm-repeat, adhoc-plan, evict-scan or churn-feed")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", 12, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = print the per-layer metrics from the same operations, traced in-process")
	bin := flag.String("ulixesd", ".bench_build/ulixesd", "ulixesd binary")
	out := flag.String("out", ".bench_build", "directory for server logs and the span file")
	short := flag.Bool("short", false, "tiny sites and one round (for tests)")
	steady := flag.Int("steady", 0, "run the workload N times with seeds seed..seed+N-1 and print each metric's spread")
	flag.Parse()

	wl, err := findWorkload(*wlName)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	rc := runConfig{wl: wl, seed: *seed, seconds: *seconds, short: *short, bin: *bin, outDir: *out, setups: 3, setupFor: 6 * time.Second, minQueries: 1000}
	if *short {
		rc.seconds, rc.minQueries, rc.setups, rc.setupFor = 0, 0, 1, 0
	}
	if *steady > 0 {
		if err := steadiness(rc, *steady); err != nil {
			fatal(err)
		}
		return
	}
	rep, err := run(rc, *trace == 1)
	if err != nil {
		fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ulixesbench:", err)
	os.Exit(2)
}

// run makes one run and builds its report: the end-to-end metrics, or with
// traced set the per-layer ones (from the same HTTP run plus the traced
// in-process replay).
func run(rc runConfig, traced bool) (*report, error) {
	res, err := runE2E(rc)
	if err != nil {
		return nil, err
	}
	rep := &report{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	if traced {
		tr, err := runTraced(rc, res)
		if err != nil {
			return nil, err
		}
		for k, v := range res.layer {
			rep.Metrics[k] = metric{v, layerUnit(k)}
		}
		for k, v := range tr {
			rep.Metrics[k] = metric{v, layerUnit(k)}
		}
	} else {
		for k, v := range res.e2e {
			rep.Metrics[k] = metric{v, e2eUnits[k]}
		}
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	rep.Correct = len(res.problems) == 0
	return rep, nil
}

// layerUnit derives a per-layer metric's unit from its name's suffix.
func layerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_ms", "ms"}, {"_us", "us"}, {"_s", "s"}, {"_ratio", "ratio"}, {"_pct", "%"},
		{"_us_per_page", "us"}, {"kb_per_get", "KB"}, {"alloc_kb_per_query", "KB"}, {"qps_wall", "1/s"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

// steadiness runs the workload n times with consecutive seeds and prints,
// for each end-to-end metric, the median, the quartiles and the quartile
// spread over the median.
func steadiness(rc runConfig, n int) error {
	vals := map[string][]float64{}
	failed, attempted := 0, 0
	for i := 0; i < n; i++ {
		r := rc
		r.seed = rc.seed + int64(i)
		res, err := runE2E(r)
		if err != nil {
			return err
		}
		if len(res.problems) > 0 {
			return fmt.Errorf("seed %d: %s", r.seed, strings.Join(res.problems, "; "))
		}
		failed += res.failed
		attempted += res.attempted
		for k, v := range res.e2e {
			vals[k] = append(vals[k], v)
		}
		fmt.Fprintf(os.Stderr, "seed %d: %d rounds, %d ops, qps %.1f, p50 %.3fms, cpu %.3fms, setup %.3fs, calibration %.0fus, steal %.1f%%\n",
			r.seed, res.rounds, res.attempted, res.e2e["qps"], res.e2e["p50_ms"], res.e2e["server_cpu_ms_per_query"],
			res.e2e["setup_s"], res.layer["host.calibration_us"], res.layer["host.steal_pct"])
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d runs, %d/%d operations failed\n", rc.wl.name, n, failed, attempted)
	fmt.Printf("%-26s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "spread")
	for _, k := range names {
		q1, q2, q3 := quartiles(vals[k])
		fmt.Printf("%-26s %12.4f %12.4f %12.4f %7.2f%%\n", k, q1, q2, q3, 100*ratio(q3-q1, q2))
	}
	return nil
}
