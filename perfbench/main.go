// Command perfbench is the repository's benchmark: three workloads that
// drive the public entry points of experiments, core and campaignd, print
// every end-to-end metric by name and unit, and check each workload's
// outputs against the repository's own oracles. A traced run (-trace 1)
// times the calls into each module's public functions from outside and
// prints the per-layer metrics instead. README.md maps every per-layer
// metric to the end-to-end metric it should move.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload campaign-perlbench --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"interferometry/internal/atomicio"
	"interferometry/internal/experiments"
	"interferometry/internal/xrand"
)

// processStart approximates process start for setup_s: package
// initialisation runs before main and after the runtime is up.
var processStart = time.Now()

// setupPasses is how many times a run sets its workload up; setup_s is
// the median, so one slow pass (a cold page cache, a neighbour's burst)
// does not move it.
const setupPasses = 7

// sizes fixes how much work one unit of each workload does. fullSizes
// is what the benchmark measures; tinySizes keeps the package's own
// tests fast.
type sizes struct {
	report experiments.Scale

	campaignLayouts int
	campaignBudget  uint64

	serviceLayouts  int
	serviceBudget   uint64
	searchPop       int
	searchGens      int
	serviceMinUnits int // new campaigns a run must complete at least

	checkSamples int // layouts or campaigns each oracle re-derives
	probeReps    int // calls per per-layer probe
}

var fullSizes = sizes{
	report:          experiments.Small,
	campaignLayouts: 2048,
	campaignBudget:  200_000,
	serviceLayouts:  16,
	serviceBudget:   60_000,
	searchPop:       5,
	searchGens:      3,
	serviceMinUnits: 100,
	checkSamples:    6,
	probeReps:       5,
}

var tinySizes = sizes{
	report: experiments.Scale{
		Name: "small", Layouts: 10, Budget: 20_000, SimBudget: 10_000,
		Configs: 6, Fidelity: experiments.Small.Fidelity, SignifStep: 10, SignifMax: 20,
	},
	campaignLayouts: 64,
	campaignBudget:  20_000,
	serviceLayouts:  4,
	serviceBudget:   20_000,
	searchPop:       3,
	searchGens:      2,
	serviceMinUnits: 4,
	checkSamples:    2,
	probeReps:       2,
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation: the workload, its seed and size, and what it
// has counted so far.
type run struct {
	seed uint64
	size sizes
	dir  string // scratch space for outputs, WAL and checkpoints
	// corrupt flips one output byte before the checks read it; the
	// package's tests use it to prove a bad output fails the run.
	corrupt bool

	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

// workload is one benchmarked traffic shape.
type workload interface {
	// prepare generates the inputs, starts what must run and pays
	// untimed warm-up; it is timed as set-up.
	prepare(r *run) error
	// teardown releases what prepare made.
	teardown()
	// phase runs the timed work for about d; tr is nil in untraced
	// phases. It returns the wall time of each unit of work.
	phase(r *run, d time.Duration, tr *tracer) ([]float64, error)
	// check compares the outputs against the repository's oracles.
	check(r *run)
	// endToEnd reports the end-to-end metrics of the untraced phase.
	endToEnd(r *run)
	// layers reports the per-layer metrics on the workload's own inputs.
	layers(r *run, tr *tracer) error
}

var workloads = map[string]func() workload{
	"report-small":       func() workload { return &reportSmall{} },
	"campaign-perlbench": func() workload { return &campaignPerlbench{} },
	"service-mixed":      func() workload { return &serviceMixed{} },
}

func main() {
	name := flag.String("workload", "", "workload: report-small, campaign-perlbench or service-mixed")
	seed := flag.Uint64("seed", 1, "workload seed; every derived seed comes from it")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead")
	workdir := flag.String("workdir", filepath.Join("perfbench", ".work"), "scratch directory")
	flag.Parse()

	res, err := execute(*name, *seed, *seconds, *trace == 1, fullSizes, *workdir, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload end to end and returns its result line.
func execute(name string, seed uint64, seconds float64, traced bool, sz sizes, workdir string, corrupt bool) (*result, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{seed: seed, size: sz, dir: dir, corrupt: corrupt,
		metrics: map[string]metric{}}
	w := mk()

	defer w.teardown()
	var setups []float64
	for i := 0; i < setupPasses; i++ {
		if i > 0 {
			w.teardown()
		}
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if err := w.prepare(r); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s set-up passes %.4f s\n", name, setups)

	d := time.Duration(seconds * float64(time.Second))
	if !traced {
		units, err := w.phase(r, d, nil)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s unit walls %.4f s\n", name, units)
		w.check(r)
		w.endToEnd(r)
		r.set("setup_s", median(setups), "s")
		r.set("peak_rss_mb", peakRSSMB(), "MiB")
		r.set("ok_ratio", 1-float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	} else {
		tr := newTracer(fmt.Sprintf("%s/%d", name, seed))
		// Half the run untraced, half traced: the difference in unit
		// wall time is the tracer's own overhead.
		plain, err := w.phase(r, d/2, nil)
		if err != nil {
			return nil, err
		}
		traced, err := w.phase(r, d/2, tr)
		if err != nil {
			return nil, err
		}
		w.check(r)
		root := tr.lastRoot()
		r.set("trace.accounted_fraction", tr.accountedFraction(root), "ratio")
		r.set("trace.overhead_pct", 100*(median(traced)/median(plain)-1), "%")
		if err := w.layers(r, tr); err != nil {
			return nil, err
		}
		for layer, s := range tr.selfByLayer() {
			r.set("trace.self_s."+layer, s, "s")
		}
		if err := tr.write(filepath.Join(workdir, "trace-"+name+".json")); err != nil {
			return nil, err
		}
	}
	printHost(r)
	return &result{Correct: len(r.problems) == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: r.metrics}, nil
}

// set records a metric.
func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed check; it counts as one failed operation.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	r.attempted++
	r.failed++
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// pass records a passed check.
func (r *run) pass() { r.attempted++ }

// derive returns the workload's stream-th seed: every BaseSeed a
// workload uses comes from the workload seed through here.
func (r *run) derive(stream, i uint64) uint64 {
	return xrand.Mix(r.seed, stream, i) | 1
}

// printHost prints the host fingerprint that goes with every result, so
// a change of host is told apart from a change of code.
func printHost(r *run) {
	host := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
	if s, err := atomicioAppendS(r.dir, 16, nil, 0); err == nil {
		host["atomicio_append_s"] = s
	}
	line, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(line))
}

// atomicioAppendS is the median durable append on a scratch file: the
// host's fsync floor under every WAL and checkpoint write.
func atomicioAppendS(dir string, n int, tr *tracer, parent int) (float64, error) {
	a, err := atomicio.OpenAppender(filepath.Join(dir, "fsync-probe.log"), 0o644)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	line := []byte(strings.Repeat("x", 63) + "\n")
	var ts []float64
	for i := 0; i < n; i++ {
		s := tr.start("atomicio.Append", parent)
		t0 := time.Now()
		err := a.Append(line)
		ts = append(ts, time.Since(t0).Seconds())
		tr.end(s)
		if err != nil {
			return 0, err
		}
	}
	return median(ts), nil
}

// cpuSeconds is the process's user+sys CPU so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process high-water resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
