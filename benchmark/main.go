// Command benchmark is the repository's measurement spine: five named
// workloads, sixteen end-to-end metrics, a per-layer table and a traced
// run, behind one command and one schema (BENCHMARK.json at the root).
//
//	go -C benchmark run .                              every workload, untraced then traced
//	go -C benchmark run . -workload serve-udp -seed 7  one workload
//	go -C benchmark run . -workload sim-stack -trace 1 the traced run: per-layer table + out/trace-sim-stack.json
//	go -C benchmark run . -aa                          the suite against itself: the noise floor
//
// The harness drives every layer from outside, through the same public
// functions a user calls, and times the calls; it adds no hook, flag or
// environment variable to the product. All load comes from the one
// goroutine of this one process, and every input (graphs, initial
// registers, packet pairs, fault schedule, crash victims) is derived
// from -seed. See README.md for the workloads and the interaction map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

const outDir = "out"

// run is one measured execution of one workload: the samples behind
// every metric, the operations attempted and failed, and whatever the
// correctness gate objected to.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tr       *tracer

	samples    map[string][]float64
	attempted  int
	failed     int
	violations []string

	// warmup marks a stage's first repetition, which pays for cold
	// caches, page faults and heap growth: its operations and exact
	// counts are checked like any other's, its samples are dropped.
	warmup bool
	// exact marks the one repetition per input whose exact counts are
	// recorded. How often an input repeats depends on how fast the box
	// is; taking its counts once keeps every count metric a function of
	// the seed alone.
	exact bool

	// Stage state that outlives one round (see runPlan).
	lockFulls, lockShorts, simReps int       // repetitions so far, by kind (see startRep)
	lat                            []float64 // probe latencies of every serve episode, ms
	rejectedStarts                 int       // see stuckStart

	// primary names the timing the named workload exists for. In a
	// traced run every other repetition runs with the tracer off, and
	// the primary's samples are kept apart by tracer state: their two
	// medians give harness.trace_overhead_pct.
	primary         string
	tracedPrimary   []float64
	untracedPrimary []float64
}

func newRun(workload string, seed int64, seconds float64, trace bool) *run {
	return &run{workload: workload, seed: seed, seconds: seconds, trace: trace,
		tr: newTracer(trace), samples: make(map[string][]float64)}
}

// add records one sample of a metric (or of an intermediate quantity a
// metric is later derived from).
func (r *run) add(name string, v float64) {
	if r.warmup {
		return
	}
	r.samples[name] = append(r.samples[name], v)
	if r.trace && name == r.primary {
		if r.tr.on {
			r.tracedPrimary = append(r.tracedPrimary, v)
		} else {
			r.untracedPrimary = append(r.untracedPrimary, v)
		}
	}
}

// addExact records an exact count, once per input.
func (r *run) addExact(name string, v float64) {
	if r.exact {
		r.add(name, v)
	}
}

// set records a metric that has exactly one value per run.
func (r *run) set(name string, v float64) { r.samples[name] = []float64{v} }

func (r *run) med(name string) float64 { return median(r.samples[name]) }

// ops counts n operations of which bad failed.
func (r *run) ops(n, bad int, what string) {
	r.attempted += n
	if bad > 0 {
		r.failed += bad
		r.violate("%d of %d %s failed", bad, n, what)
	}
}

// check counts one operation that must hold; err == nil means it did.
func (r *run) check(err error, what string) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.violate("%s: %v", what, err)
	}
	return err == nil
}

func (r *run) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// startRep prepares one repetition of a stage. In a traced run every
// other repetition goes untraced, which is where the tracing overhead
// is measured; nth counts repetitions of the same kind, so that each
// kind is traced half the time.
func (r *run) startRep(warmup, exact bool, nth int) {
	r.warmup, r.exact = warmup, exact
	r.tr.run++
	r.tr.on = r.trace && nth%2 == 0
}

// endStage restores the run's state after a stage's last repetition.
func (r *run) endStage() {
	r.warmup, r.exact = false, false
	r.tr.on = r.trace
}

// subSeed derives the seed of the run's k-th input of a kind.
func (r *run) subSeed(k int) int64 { return r.seed*1_000_003 + int64(k) }

// reported is one metric as printed and stored.
type reported struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	summary
}

// result is what one run leaves behind in out/result-<workload>.json.
type result struct {
	Workload   string              `json:"workload"`
	Seed       int64               `json:"seed"`
	Seconds    float64             `json:"seconds"`
	Traced     bool                `json:"traced"`
	Env        environment         `json:"env"`
	Correct    bool                `json:"correct"`
	Attempted  int                 `json:"ops_attempted"`
	Failed     int                 `json:"ops_failed"`
	Violations []string            `json:"violations,omitempty"`
	WallS      float64             `json:"wall_s"`
	Metrics    map[string]reported `json:"metrics"`
	// Samples summarises everything the stages recorded, including the
	// quantities the metrics were derived from and, in an untraced run,
	// the layer numbers that need no spans.
	Samples map[string]summary `json:"samples"`
}

type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Network    string `json:"network"`
	Load       string `json:"load"`
}

func readEnvironment() environment {
	// The commit, if the checkout (the directory above this one) is a git
	// repository; git is told not to look for one any higher up.
	commit := "unknown"
	if root, err := filepath.Abs(".."); err == nil {
		cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
		if out, err := cmd.Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return environment{
		NProc:      goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion:  goruntime.Version(),
		Commit:     commit,
		Network:    "UDP traffic crossed the host loopback interface; no injected delay",
		Load:       "generated from one goroutine of the one benchmark process",
	}
}

// finish turns the samples into the reported metrics: the end-to-end
// list for an untraced run, the per-layer table for a traced one.
func (r *run) finish(env environment, wall time.Duration) *result {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	res := &result{Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Traced: r.trace, Env: env,
		Attempted: r.attempted, Failed: r.failed, Violations: r.violations,
		WallS: wall.Seconds(), Metrics: make(map[string]reported)}
	for _, d := range defs {
		xs, ok := r.samples[d.Name]
		if !ok {
			r.violate("metric %s was not measured", d.Name)
			res.Violations = r.violations
		}
		s := summarize(xs)
		res.Metrics[d.Name] = reported{Value: s.Median, Unit: d.Unit, Better: d.Better, Bound: d.Bound, summary: s}
	}
	res.Correct = len(res.Violations) == 0
	res.Samples = make(map[string]summary, len(r.samples))
	for name, xs := range r.samples {
		res.Samples[name] = summarize(xs)
	}
	return res
}

// driverLine is the last line of standard output.
func (res *result) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(res.Metrics))
	for name, m := range res.Metrics {
		metrics[name] = mv{m.Value, m.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics})
	return string(line)
}

func (res *result) print() {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer"
	}
	fmt.Printf("\n== %s  seed=%d  %s  wall=%.1fs  ops=%d failed=%d correct=%v\n",
		res.Workload, res.Seed, kind, res.WallS, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-36s %14.6g %-6s [q1 %.6g, q3 %.6g, n=%d]\n", n, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
	for _, v := range res.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
}

func (res *result) write() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	name := "result-" + res.Workload
	if res.Traced {
		name += "-traced"
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name+".json"), data, 0o644)
}

// execute runs one workload once and returns its result.
func execute(workload string, seed int64, seconds float64, trace bool, env environment) (*result, error) {
	plan, ok := plans[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	start := time.Now()
	r := newRun(workload, seed, seconds, trace)
	r.primary = plan.primary
	r.runPlan(plan)
	res := r.finish(env, time.Since(start))
	if trace {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := r.tr.write(filepath.Join(outDir, "trace-"+workload+".json")); err != nil {
			return nil, err
		}
	}
	return res, res.write()
}

func main() {
	workload := flag.String("workload", "", "run one workload (default: all five, untraced then traced)")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", runSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = the traced run: spans around every call into a layer, per-layer table")
	aa := flag.Bool("aa", false, "run the whole suite against itself and report the noise floor")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *spec {
		data, _ := json.MarshalIndent(benchmarkSpec(), "", "  ")
		fmt.Println(string(data))
		return
	}
	env := readEnvironment()
	fmt.Printf("benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s; %s; load %s\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, env.Network, env.Load)
	if *aa {
		os.Exit(selfCompare(*seed, *seconds, env))
	}
	if *workload != "" {
		res, err := execute(*workload, *seed, *seconds, *trace == 1, env)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		res.print()
		if !res.Correct {
			os.Exit(1)
		}
		fmt.Println(res.driverLine())
		return
	}
	// The whole suite: every workload untraced, then every workload
	// traced, so one command prints every metric by name.
	ok := true
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			res, err := execute(w.Name, *seed, *seconds, traced, env)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(2)
			}
			res.print()
			ok = ok && res.Correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}
