package core

import (
	"errors"
	"fmt"
	"sort"

	"interferometry/internal/interp"
	"interferometry/internal/machine"
	"interferometry/internal/pmc"
	"interferometry/internal/toolchain"
)

// LayoutRunner is the campaign's per-layout pipeline, and every
// scheduler drives it: RunCampaign and Extend, the outlier screen, the
// layout search, and campaignd's coordinator and remote workers. The
// shared work (trace interpretation, the one compile every layout
// reorders) happens once at construction; after that any unit — layout
// index or genome — can be built and measured independently on any
// worker slot, in any order, any number of times, and always yields the
// same observation: every per-unit input is re-derived from the campaign
// config, never from scheduler state.
//
// Run is the chunk driver. Build and Measure expose its two seams
// separately so a scheduler can wrap each in its own circuit breaker
// and attribute failures to the seam that caused them. Fault injection,
// when configured, is already inside both seams.
type LayoutRunner struct {
	cfg   CampaignConfig
	co    *campaignObs
	trace *interp.Trace
	// builder is the one compile behind both build seams.
	builder *toolchain.Builder
	build   buildSeam
	meas    []measureSeam
	// slots holds each worker slot's batched-replay state; the slot's
	// det cache backs the slot's harness.
	slots []*batchSlot
	// attKey is the builder's toolchain identity (AttestationKey).
	attKey string
}

// NewLayoutRunner validates the config, interprets the trace and
// prepares the shared compile plus one measurement harness per worker
// slot (workers <= 0 means 1).
func NewLayoutRunner(cfg CampaignConfig, workers int) (*LayoutRunner, error) {
	return NewLayoutRunnerOn(cfg, nil, workers)
}

// NewLayoutRunnerOn is NewLayoutRunner over a trace the caller already
// interpreted from cfg's program, input seed and budget, so schedulers
// running many campaigns of one workload interpret it once. The trace is
// only read, never written, so any number of runners may share it. A nil
// trace is interpreted here.
func NewLayoutRunnerOn(cfg CampaignConfig, trace *interp.Trace, workers int) (*LayoutRunner, error) {
	if cfg.Program == nil {
		return nil, errors.New("core: campaign needs a program")
	}
	if cfg.Layouts <= 0 {
		return nil, errors.New("core: campaign needs at least one layout")
	}
	if cfg.Budget == 0 && cfg.Limiter.StopCount == 0 {
		return nil, errors.New("core: campaign needs a budget or limiter")
	}
	if trace == nil {
		var err error
		if trace, err = interp.Run(cfg.Program, cfg.InputSeed, cfg.stopRule()); err != nil {
			return nil, fmt.Errorf("core: trace generation failed: %w", err)
		}
	} else if trace.Program != cfg.Program || trace.InputSeed != cfg.InputSeed {
		return nil, errors.New("core: trace was not interpreted from the campaign's program and input")
	}
	return newRunner(cfg, trace, workers), nil
}

// newRunner prepares the runner's seams over an interpreted trace: one
// compile shared by every unit and worker (only Reorder+Link depend on
// the unit) and one counter harness per worker slot, both wrapped by the
// fault injector when one is configured. Each harness reads its slot's
// det cache through the pmc.DetSource seam. The genome seam is the same
// builder; Unit.builder fault-wraps it per call.
func newRunner(cfg CampaignConfig, trace *interp.Trace, workers int) *LayoutRunner {
	if workers <= 0 {
		workers = 1
	}
	r := &LayoutRunner{cfg: cfg, trace: trace}
	c := &r.cfg
	r.co = newCampaignObs(c)
	r.builder = toolchain.NewBuilder(c.Program, c.Compile, c.Link)
	r.builder.Observe(builderMetrics(c.Obs))
	r.attKey = r.builder.Identity()
	r.build = r.builder
	if c.Faults != nil {
		c.Faults.Observe(c.Obs)
		r.build = c.Faults.WrapBuilder(r.build)
	}
	mcfg := c.machineConfig()
	hmetrics := harnessMetrics(c.Obs)
	r.meas = make([]measureSeam, workers)
	r.slots = make([]*batchSlot, workers)
	for w := range r.meas {
		r.slots[w] = &batchSlot{}
		h := &pmc.Harness{
			Machine:      machine.New(mcfg),
			Fidelity:     c.Fidelity,
			RunsPerGroup: c.RunsPerGroup,
			Metrics:      hmetrics,
			Det:          &r.slots[w].cache,
		}
		r.meas[w] = h
		if c.Faults != nil {
			r.meas[w] = c.Faults.WrapMeasurer(h)
		}
	}
	return r
}

// Layouts returns the campaign's layout count.
func (r *LayoutRunner) Layouts() int { return r.cfg.Layouts }

// Workers returns the number of worker slots.
func (r *LayoutRunner) Workers() int { return len(r.meas) }

// AttestationKey is the toolchain identity observations from this
// runner are fingerprinted against (ObsWire.Attest). Two runners built
// from the same campaign config — coordinator and remote worker —
// derive the same key, so fingerprints stamped on one side verify on
// the other.
func (r *LayoutRunner) AttestationKey() string { return r.attKey }

// Seed returns the layout seed an observation of u must carry: the
// derived layout seed of an indexed layout, a genome's fingerprint.
// Schedulers use it to check that a result streamed back from a remote
// worker belongs to the unit it was leased for.
func (r *LayoutRunner) Seed(u Unit) uint64 { return u.seed(&r.cfg) }

// Build runs one attempt through u's build seam: reorder+link plus the
// executable integrity check. A panic in the seam (injected or real)
// comes back as an error wrapping a *PanicError.
func (r *LayoutRunner) Build(u Unit) (*toolchain.Executable, error) {
	return r.buildOn(0, u)
}

// Measure runs one attempt through the measure seam of worker slot w
// (two concurrent calls must use distinct slots): the counter harness
// plus the plausibility check. The heap and noise seeds are re-derived
// from the unit, so any executable built for u measures identically
// wherever and whenever it runs. A panic comes back as an error
// wrapping a *PanicError.
func (r *LayoutRunner) Measure(w int, u Unit, exe *toolchain.Executable) (Observation, error) {
	if err := r.checkSlot(w); err != nil {
		return Observation{}, err
	}
	return r.measureOn(w, u, exe)
}

// Failed is the observation recorded for a unit that exhausted its
// attempts: the derived seeds with zero counters and StatusFailed.
func (r *LayoutRunner) Failed(u Unit, attempts int) Observation {
	return Observation{LayoutSeed: u.seed(&r.cfg), HeapSeed: u.heapSeed(&r.cfg), Status: StatusFailed, Attempts: attempts}
}

// Run drives units through the pipeline on worker slot w (two
// concurrent calls must use distinct slots), phase by phase:
//
//	A. one build attempt per unit;
//	B. when at least two units built and the fidelity and machine can
//	   be batched, one batched trace walk over them (machine.Batch),
//	   priming the slot's det cache so phase C synthesizes each
//	   measurement from the shared walk. The walk is pinned
//	   bit-identical to scalar replay; a failed walk leaves the cache
//	   empty, counts as a batch-walk fallback, and phase C replays each
//	   unit on the scalar machine;
//	C. per unit, the measure, then on any failure up to attempts-1 full
//	   build+measure retries spaced by the campaign's backoff.
//
// A recovered panic is one failed attempt, like any other fault.
// deliver receives each unit's outcome in order: the observation with
// its attempts and status stamped, or the unit's final error. attempts
// below 1 means 1.
func (r *LayoutRunner) Run(w int, units []Unit, attempts int, deliver func(j int, o Observation, err error)) {
	if err := r.checkSlot(w); err != nil {
		for j := range units {
			deliver(j, Observation{}, err)
		}
		return
	}
	cfg := &r.cfg
	s := r.slots[w]
	s.cache.reset()
	s.exes, s.errs, s.specs = s.exes[:0], s.errs[:0], s.specs[:0]
	for _, u := range units {
		exe, err := r.buildOn(w, u)
		s.exes = append(s.exes, exe)
		s.errs = append(s.errs, err)
		if err == nil {
			s.specs = append(s.specs, machine.RunSpec{Exe: exe, Trace: r.trace, HeapMode: cfg.HeapMode, HeapSeed: u.heapSeed(cfg)})
		}
	}
	if n := len(s.specs); n >= 2 && n <= 64 && cfg.Fidelity != pmc.FidelityPaperNaive {
		if s.engine(cfg.machineConfig(), n) == nil {
			s.walk(r.co, w, units[0].key(cfg))
		}
	}
	for j, u := range units {
		st := r.co.layoutStart(u.spanID(cfg, r.co), w)
		o, err := r.finish(w, u, s.exes[j], s.errs[j], attempts)
		st.end()
		deliver(j, o, err)
	}
}

// finish completes unit u's attempts: attempt one built exe (or failed
// with err); measure it, and retry build+measure while attempts remain.
// Every attempt derives the same seeds, so a fault cleared by retrying
// yields the exact observation an undisturbed run produces.
func (r *LayoutRunner) finish(w int, u Unit, exe *toolchain.Executable, err error, attempts int) (Observation, error) {
	cfg := &r.cfg
	for a := 1; ; a++ {
		if err == nil {
			var o Observation
			if o, err = r.measureOn(w, u, exe); err == nil {
				o.Attempts = a
				if a > 1 {
					o.Status = StatusRetried
				}
				return o, nil
			}
		}
		if a >= attempts {
			return Observation{}, fmt.Errorf("core: %v failed after %d attempts: %w", u, a, err)
		}
		if r.co != nil {
			r.co.o.Prog().Retry()
		}
		// Space the next attempt per the campaign's backoff policy (zero
		// policy: no delay, no cancellation point). The jitter keys off
		// the unit's seed, so a resumed or replayed campaign backs off by
		// identical amounts.
		if serr := cfg.Backoff.Sleep(cfg.context(), a, cfg.BaseSeed, u.seed(cfg)); serr != nil {
			return Observation{}, fmt.Errorf("core: %v: retry backoff interrupted: %w", u, serr)
		}
		exe, err = r.buildOn(w, u)
	}
}

// buildOn is one attempt through u's build seam on worker w's lane.
func (r *LayoutRunner) buildOn(w int, u Unit) (*toolchain.Executable, error) {
	cfg := &r.cfg
	if u.genome == nil && (u.index < 0 || u.index >= cfg.Layouts) {
		return nil, fmt.Errorf("core: layout index %d outside campaign [0,%d)", u.index, cfg.Layouts)
	}
	if r.co != nil {
		r.co.attempts.Inc()
	}
	st := r.co.stageStart("compile", u.spanID(cfg, r.co), tagCompile, w)
	defer st.end()
	var exe *toolchain.Executable
	err := runGuarded(func(_, _ int) error {
		var berr error
		exe, berr = u.builder(r).Build(u.seed(cfg))
		return berr
	}, w, 0)
	if err != nil {
		return nil, fmt.Errorf("core: %v: %w", u, err)
	}
	if err := toolchain.CheckExecutable(exe, u.layoutNumber(cfg)); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return exe, nil
}

// measureOn is one attempt through worker w's measure seam: the counter
// harness run plus the plausibility check on its readings.
func (r *LayoutRunner) measureOn(w int, u Unit, exe *toolchain.Executable) (Observation, error) {
	cfg := &r.cfg
	id := u.runID(cfg)
	span := u.spanID(cfg, r.co)
	st := r.co.stageStart("run", span, tagRun, w)
	var m pmc.Measurement
	err := runGuarded(func(_, _ int) error {
		var merr error
		m, merr = r.meas[w].Measure(machine.RunSpec{
			Exe:       exe,
			Trace:     r.trace,
			HeapMode:  cfg.HeapMode,
			HeapSeed:  id.HeapSeed,
			NoiseSeed: id.NoiseSeed,
		})
		return merr
	}, w, 0)
	st.end()
	if err != nil {
		return Observation{}, fmt.Errorf("core: %v: %w", u, err)
	}
	st = r.co.stageStart("fit", span, tagFit, w)
	err = m.Check(r.trace.Instrs, id)
	st.end()
	if err != nil {
		return Observation{}, fmt.Errorf("core: %w", err)
	}
	return Observation{LayoutSeed: id.LayoutSeed, HeapSeed: id.HeapSeed, Measurement: m}, nil
}

func (r *LayoutRunner) checkSlot(w int) error {
	if w < 0 || w >= len(r.slots) {
		return fmt.Errorf("core: worker slot %d outside [0,%d)", w, len(r.slots))
	}
	return nil
}

// release returns every slot's batch engine to the pool.
func (r *LayoutRunner) release() {
	for _, s := range r.slots {
		s.release()
	}
}

// CompletedObservation stamps retry provenance onto a successful
// observation the way Run does: Attempts is the number of executions
// the unit took, and any retry marks the status. Schedulers that retry
// through their own queue track attempts themselves, so the stamp is
// explicit here.
func CompletedObservation(o Observation, attempts int) Observation {
	o.Attempts = attempts
	if attempts > 1 {
		o.Status = StatusRetried
	}
	return o
}

// Dataset assembles the campaign dataset from per-layout observations
// (indexed by layout, one per configured layout) and the permanent
// failures. The result is interchangeable with RunCampaign's: same
// config, same trace, same observation order.
func (r *LayoutRunner) Dataset(observations []Observation, failures []LayoutFailure) (*Dataset, error) {
	if len(observations) != r.cfg.Layouts {
		return nil, fmt.Errorf("core: %d observations for a %d-layout campaign", len(observations), r.cfg.Layouts)
	}
	ds := &Dataset{
		Benchmark: r.cfg.Program.Name,
		Config:    r.cfg,
		Trace:     r.trace,
		Obs:       append([]Observation(nil), observations...),
	}
	ds.Failures = append([]LayoutFailure(nil), failures...)
	sort.Slice(ds.Failures, func(a, b int) bool { return ds.Failures[a].Index < ds.Failures[b].Index })
	return ds, nil
}

// CheckpointSink exposes the campaign checkpoint machinery to external
// schedulers: the same directory layout, header validation and
// atomic-rename durability as RunCampaign's Checkpoint config, so a
// campaign interrupted under campaignd resumes under cmd/interferometry
// and vice versa.
type CheckpointSink struct {
	w        *checkpointWriter
	restored map[int]Observation
}

// OpenCheckpointSink prepares cfg.Checkpoint.Dir and, when
// cfg.Checkpoint.Resume is set, loads previously completed observations
// (failed records are not restored: a resume retries them).
func OpenCheckpointSink(cfg CampaignConfig) (*CheckpointSink, error) {
	if cfg.Checkpoint.Dir == "" {
		return nil, errors.New("core: checkpoint sink needs a directory")
	}
	w, loaded, err := openCheckpoint(&cfg)
	if err != nil {
		return nil, err
	}
	return &CheckpointSink{w: w, restored: loaded}, nil
}

// Restored returns the observations loaded on resume, keyed by
// campaign-local layout index.
func (s *CheckpointSink) Restored() map[int]Observation {
	return s.restored
}

// Put persists one completed observation. Safe for concurrent use;
// write failures surface at Close.
func (s *CheckpointSink) Put(i int, o Observation) {
	s.w.put(i, o)
}

// Close surfaces the first deferred write error.
func (s *CheckpointSink) Close() error {
	return s.w.close()
}
