package campaignd

import (
	"fmt"
	"sync"

	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/interp"
	"interferometry/internal/isa"
	"interferometry/internal/obs"
	"interferometry/internal/progen"
)

// workloads shares what every campaign of one workload measures.
// Interferometry perturbs the layout, never the program or its input
// (DESIGN.md §9), so all campaigns of one benchmark run one program,
// and all campaigns of one benchmark and effective budget replay one
// trace. A coordinator's admissions and a worker's runner cache derive
// each once and share it; both are only ever read. Programs are keyed
// by progen preset, so the progen table bounds them. Traces are bounded
// by maxSharedTraces and evicted oldest first. An evicted trace stays
// alive while a runner holds it, and the next campaign that needs it
// re-derives an identical one.
type workloads struct {
	hits, misses *obs.Counter

	mu       sync.Mutex
	programs map[string]*isa.Program
	traces   map[traceKey]*interp.Trace
	order    []traceKey // FIFO eviction order
}

// traceKey names one shared trace. Every campaignd spec interprets its
// program on input seed 1 under a plain budget stop, so the benchmark
// and effective budget determine the trace.
type traceKey struct {
	benchmark string
	budget    uint64
}

// maxSharedTraces bounds the traces one process shares.
const maxSharedTraces = 8

func newWorkloads(o *obs.Observer) *workloads {
	return &workloads{
		hits:     obsCounter(o, "campaignd_workload_cache_hits_total", "campaign runners built on an already shared program and trace"),
		misses:   obsCounter(o, "campaignd_workload_cache_misses_total", "campaign runners whose trace had to be interpreted"),
		programs: make(map[string]*isa.Program),
		traces:   make(map[traceKey]*interp.Trace),
	}
}

// campaign translates spec into its campaign config over the shared
// program and returns the shared trace that config interprets to. A
// miss derives under the lock, so concurrent admissions of one workload
// derive it once; a small-scale trace takes about a millisecond.
func (wl *workloads) campaign(spec JobSpec, scale experiments.Scale) (core.CampaignConfig, *interp.Trace, error) {
	wl.mu.Lock()
	defer wl.mu.Unlock()
	prog, ok := wl.programs[spec.Benchmark]
	if !ok {
		var err error
		if prog, err = benchmarkProgram(spec.Benchmark); err != nil {
			return core.CampaignConfig{}, nil, err
		}
		wl.programs[spec.Benchmark] = prog
	}
	cfg := campaignConfig(spec, scale, prog)
	key := traceKey{spec.Benchmark, cfg.Budget}
	if trace, ok := wl.traces[key]; ok {
		wl.hits.Inc()
		return cfg, trace, nil
	}
	wl.misses.Inc()
	trace, err := interp.Run(prog, cfg.InputSeed, interp.StopRule{Budget: cfg.Budget})
	if err != nil {
		return core.CampaignConfig{}, nil, fmt.Errorf("campaignd: trace of %s: %w", spec.Benchmark, err)
	}
	for len(wl.order) >= maxSharedTraces {
		delete(wl.traces, wl.order[0])
		wl.order = wl.order[1:]
	}
	wl.traces[key] = trace
	wl.order = append(wl.order, key)
	return cfg, trace, nil
}

// benchmarkProgram generates a progen suite program by name.
func benchmarkProgram(name string) (*isa.Program, error) {
	ps, ok := progen.ByName(name)
	if !ok {
		return nil, fmt.Errorf("campaignd: unknown benchmark %q", name)
	}
	return progen.Generate(ps)
}
