package core

import (
	"time"

	"interferometry/internal/obs"
	"interferometry/internal/pmc"
	"interferometry/internal/toolchain"
)

// Span-path tags: the deterministic span tree is keyed by BaseSeed and
// these constants, so identical campaign seeds yield identical span IDs
// whatever the timing or worker schedule.
const (
	tagCampaign  uint64 = 0x63616d70 // "camp"
	tagLayout    uint64 = 0x6c61796f // "layo"
	tagCompile   uint64 = 0x636f6d70 // "comp"
	tagRun       uint64 = 0x72756e   // "run"
	tagFit       uint64 = 0x666974   // "fit"
	tagOutlier   uint64 = 0x6f75746c // "outl"
	tagModelFit  uint64 = 0x6d6f6466 // "modf"
	tagEvaluate  uint64 = 0x6576616c // "eval"
	tagCacheEval uint64 = 0x63616368 // "cach"
	tagLinearity uint64 = 0x6c696e65 // "line"
	tagWalk      uint64 = 0x77616c6b // "walk"
)

// hashName folds a benchmark name into the span-ID chain (FNV-1a 64).
func hashName(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// campSpanID derives the campaign's root span ID. The chain mixes the
// base seed, benchmark and heap mode so campaigns sharing a base seed
// (Figure 2 runs two benchmarks with one seed) never collide, while
// identical configurations reproduce identical IDs run to run.
func campSpanID(cfg *CampaignConfig) uint64 {
	return obs.SpanID(cfg.BaseSeed, tagCampaign, hashName(cfg.Program.Name), uint64(cfg.HeapMode))
}

// campaignObs holds the campaign's resolved instruments. All instrument
// lookups happen once here, at campaign start; the per-layout hot path
// touches only held pointers. A nil *campaignObs (unobserved campaign)
// makes every method a no-op without a single time.Now call.
type campaignObs struct {
	o      *obs.Observer
	campID uint64

	layoutsDone      *obs.Counter
	layoutsFailed    *obs.Counter
	layoutsRetried   *obs.Counter
	attempts         *obs.Counter
	restored         *obs.Counter
	outliersFlagged  *obs.Counter
	outliersRepaired *obs.Counter
	screenFailures   *obs.Counter
	batchFallbacks   *obs.Counter
	l1iResident      *obs.Counter
	l1dResident      *obs.Counter

	compileSec *obs.Histogram
	runSec     *obs.Histogram
	fitSec     *obs.Histogram
	layoutSec  *obs.Histogram
	walkSec    *obs.Histogram
}

// newCampaignObs resolves the campaign instruments, or nil when the
// config carries no observer.
func newCampaignObs(cfg *CampaignConfig) *campaignObs {
	o := cfg.Obs
	if o == nil {
		return nil
	}
	return &campaignObs{
		o:                o,
		campID:           campSpanID(cfg),
		layoutsDone:      o.Counter("interferometry_layouts_done_total", "layouts measured successfully"),
		layoutsFailed:    o.Counter("interferometry_layouts_failed_total", "layouts that exhausted their retry budget"),
		layoutsRetried:   o.Counter("interferometry_layouts_retried_total", "layouts that needed more than one attempt"),
		attempts:         o.Counter("interferometry_attempts_total", "build+measure attempts, including retries"),
		restored:         o.Counter("interferometry_checkpoint_restored_total", "observations restored from a checkpoint on resume"),
		outliersFlagged:  o.Counter("interferometry_outliers_flagged_total", "observations flagged by the MAD screen"),
		outliersRepaired: o.Counter("interferometry_outliers_repaired_total", "flagged observations replaced by re-measurement"),
		screenFailures:   o.Counter("interferometry_outlier_remeasure_failures_total", "outlier-screen re-measurements that failed or panicked"),
		batchFallbacks:   o.Counter("interferometry_batch_walk_fallbacks_total", "batched trace walks that failed or panicked, leaving their layouts to scalar replay"),
		l1iResident:      o.Counter("interferometry_batch_walk_l1i_resident_total", "batched trace walks whose L1I was proven eviction-free in every lane, skipping the fetch walks of repeat block executions"),
		l1dResident:      o.Counter("interferometry_batch_walk_l1d_resident_total", "batched trace walks whose L1D was proven eviction-free in every lane, skipping the set walks of repeat data accesses"),
		compileSec:       o.Histogram("interferometry_stage_compile_seconds", "reorder+link+check stage latency", obs.DurationBuckets),
		runSec:           o.Histogram("interferometry_stage_run_seconds", "measurement stage latency: a machine replay, or for a batch-walked unit only the cached-replay lookup plus noise synthesis (the walk is in interferometry_stage_walk_seconds)", obs.DurationBuckets),
		fitSec:           o.Histogram("interferometry_stage_fit_seconds", "plausibility-check+record stage latency", obs.DurationBuckets),
		layoutSec:        o.Histogram("interferometry_layout_seconds", "per-layout measure latency including retries", obs.DurationBuckets),
		walkSec:          o.Histogram("interferometry_stage_walk_seconds", "batched trace walk latency, one per walked chunk", obs.DurationBuckets),
	}
}

// stage is one timed, traced step of a layout measurement.
type stage struct {
	co   *campaignObs
	span obs.Span
	hist *obs.Histogram
	t0   time.Time
}

// start opens a span in the worker's tid lane (lane w+1; lane 0 is
// reserved for campaign-level spans) and starts the latency timer hist
// records when the stage ends.
func (co *campaignObs) start(name string, id, parent uint64, hist *obs.Histogram, w int) stage {
	return stage{
		co:   co,
		span: co.o.StartSpan(name, id, parent, w+1),
		hist: hist,
		t0:   time.Now(),
	}
}

// stageStart opens one stage of a unit's attempt under its layout span.
// The stage tag selects both the span identity and the latency histogram.
func (co *campaignObs) stageStart(name string, layoutID, tag uint64, w int) stage {
	if co == nil {
		return stage{}
	}
	hist := co.fitSec
	switch tag {
	case tagCompile:
		hist = co.compileSec
	case tagRun:
		hist = co.runSec
	}
	return co.start(name, obs.SpanID(layoutID, tag), layoutID, hist, w)
}

// layoutStart opens a unit's layout span under the campaign span: its
// measure and every retry.
func (co *campaignObs) layoutStart(id uint64, w int) stage {
	if co == nil {
		return stage{}
	}
	return co.start("layout", id, co.campID, co.layoutSec, w)
}

// walkStart opens a chunk's batched walk under the campaign span, keyed
// by the chunk's first unit.
func (co *campaignObs) walkStart(key uint64, w int) stage {
	if co == nil {
		return stage{}
	}
	return co.start("walk", obs.SpanID(co.campID, tagWalk, key), co.campID, co.walkSec, w)
}

// end closes the span and records the stage latency.
func (s stage) end() {
	if s.co == nil {
		return
	}
	s.hist.Observe(time.Since(s.t0).Seconds())
	s.span.End()
}

// supTel is superviseFor's telemetry sink: per-worker busy/idle time and
// per-index queue wait (the gap between a worker freeing up and its next
// index's work starting). A nil *supTel keeps the supervisor free of any
// clock reads.
type supTel struct {
	busy *obs.Gauge
	idle *obs.Gauge
	wait *obs.Histogram
}

// newSupTel resolves the supervisor instruments, or nil without an
// observer. The gauges accumulate across sweeps and workers; the report
// reader compares busy against busy+idle for utilization.
func newSupTel(o *obs.Observer) *supTel {
	if o == nil {
		return nil
	}
	return &supTel{
		busy: o.Gauge("interferometry_worker_busy_seconds", "total worker time spent inside sweep bodies"),
		idle: o.Gauge("interferometry_worker_idle_seconds", "total worker time spent waiting for work or draining"),
		wait: o.Histogram("interferometry_queue_wait_seconds", "per-index wait between a worker freeing up and its next index starting", obs.DurationBuckets),
	}
}

// harnessMetrics builds the pmc instrument set from the observer.
func harnessMetrics(o *obs.Observer) *pmc.HarnessMetrics {
	if o == nil {
		return nil
	}
	return &pmc.HarnessMetrics{
		Measurements: o.Counter("interferometry_pmc_measurements_total", "layout measurements performed"),
		Simulations:  o.Counter("interferometry_pmc_simulations_total", "full machine simulations executed"),
		SynthRuns:    o.Counter("interferometry_pmc_synth_runs_total", "protocol runs synthesized from a shared simulation"),
	}
}

// builderMetrics builds the toolchain instrument set from the observer.
func builderMetrics(o *obs.Observer) *toolchain.BuilderMetrics {
	if o == nil {
		return nil
	}
	return &toolchain.BuilderMetrics{
		Builds:       o.Counter("interferometry_builder_builds_total", "layout links performed"),
		BuildSeconds: o.Histogram("interferometry_builder_build_seconds", "reorder+link latency", obs.DurationBuckets),
	}
}

// sweepSpan opens a campaign-level span for one of the dataset sweeps
// (model fit, predictor eval, cache eval), parented on the campaign
// span; it is inert without an observer.
func sweepSpan(cfg *CampaignConfig, name string, tag uint64) obs.Span {
	if cfg.Obs == nil {
		return obs.Span{}
	}
	campID := campSpanID(cfg)
	return cfg.Obs.StartSpan(name, obs.SpanID(campID, tag), campID, 0)
}

// rootSpan opens a parentless span for studies that run outside a
// campaign (the linearity study).
func rootSpan(o *obs.Observer, name string, id uint64) obs.Span {
	if o == nil {
		return obs.Span{}
	}
	return o.StartSpan(name, id, 0, 0)
}
