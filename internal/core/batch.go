package core

import (
	"fmt"
	"sync"
	"time"

	"interferometry/internal/heap"
	"interferometry/internal/interp"
	"interferometry/internal/machine"
	"interferometry/internal/pmc"
	"interferometry/internal/toolchain"
)

// This file is the campaign side of batched replay (machine.Batch): a
// worker takes a contiguous chunk of layout indices, builds each
// executable, walks the trace ONCE for the whole chunk, and then drives
// every layout through the exact per-layout pipeline the sequential path
// uses — measureBuilt, plausibility check, retry tail, checkpoint. The
// batch primes a per-worker detCache that the worker's pmc.Harness
// consults through the pmc.DetSource seam, so the harness synthesizes
// each measurement from the batch's deterministic replay instead of
// re-simulating. Batch.Run is pinned bit-identical to
// Machine.RunDeterministic lane by lane, which makes the whole batched
// campaign byte-identical to the sequential one: same observations, same
// statuses, same CSV bytes.

// batchSize resolves the campaign's effective batch width for a worker
// count: 0 is automatic (each worker's fair share of the campaign,
// capped at 32 lanes), 1 disables batching. FidelityPaperNaive always
// runs sequentially — that fidelity exists to literally execute every
// protocol run, so serving it from a shared replay would defeat its
// purpose as the equivalence reference.
func (c *CampaignConfig) batchSize(workers int) int {
	if c.Fidelity == pmc.FidelityPaperNaive {
		return 1
	}
	b := c.BatchSize
	if b == 0 {
		if workers < 1 {
			workers = 1
		}
		b = (c.Layouts + workers - 1) / workers
		if b > 32 {
			b = 32
		}
	}
	if b < 1 {
		b = 1
	}
	if b > 64 {
		b = 64 // machine.Batch lane-mask limit
	}
	return b
}

// detCache holds the deterministic replays of one batch chunk, keyed by
// the run spec fields that determine the deterministic outcome. It backs
// the worker's pmc.Harness through the pmc.DetSource seam. Entries are
// only ever written from a successful machine.Batch.Run, whose results
// are pinned bit-identical to the scalar path, so a hit can never change
// a measurement. The cache is per worker slot and reset at every chunk;
// lookups are a linear scan over at most one chunk of entries.
type detCache struct {
	specs []machine.RunSpec
	cs    []machine.Counters
	dets  []float64
}

func (dc *detCache) reset() {
	dc.specs = dc.specs[:0]
	dc.cs = dc.cs[:0]
	dc.dets = dc.dets[:0]
}

func (dc *detCache) put(spec machine.RunSpec, c machine.Counters, det float64) {
	dc.specs = append(dc.specs, spec)
	dc.cs = append(dc.cs, c)
	dc.dets = append(dc.dets, det)
}

// Det implements pmc.DetSource. NoiseSeed and DisableNoise are ignored:
// noise perturbs only the final cycle scalar, never the deterministic
// replay. A non-nil Predictor never matches — the batch ran with the
// built-in predictor.
func (dc *detCache) Det(spec machine.RunSpec) (machine.Counters, float64, bool) {
	if spec.Predictor != nil {
		return machine.Counters{}, 0, false
	}
	for j := range dc.specs {
		s := &dc.specs[j]
		if s.Exe == spec.Exe && s.Trace == spec.Trace &&
			s.HeapMode == spec.HeapMode && s.HeapSeed == spec.HeapSeed {
			return dc.cs[j], dc.dets[j], true
		}
	}
	return machine.Counters{}, 0, false
}

// batchSlot is one worker's batched-replay state: the batch engine, the
// det cache its harness reads, and per-chunk scratch.
type batchSlot struct {
	batch *machine.Batch
	cache *detCache

	idxs  []int // pending layout indices of the current chunk
	exes  []*toolchain.Executable
	errs  []error
	specs []machine.RunSpec
}

// walk runs the trace once for the slot's pending specs, guarded
// against panics, and records every lane's deterministic replay in the
// det cache. A failed walk adds no entries, so its layouts replay
// sequentially, and counts as a batch-walk fallback.
func (s *batchSlot) walk(co *campaignObs) error {
	err := runGuarded(func(_, _ int) error {
		cs, dets, err := s.batch.Run(s.specs)
		if err != nil {
			return err
		}
		for j := range s.specs {
			s.cache.put(s.specs[j], cs[j], dets[j])
		}
		return nil
	}, 0, 0)
	if err != nil && co != nil {
		co.batchFallbacks.Inc()
	}
	return err
}

// batchPool recycles batch engines across campaigns: a Batch's SoA state
// is megabytes of bank tables, and allocating (and zeroing) it per
// campaign costs more than any single campaign's walk shortcut saves at
// small layout counts. Run re-derives all layout-dependent state and
// flushes every bank, so a recycled engine is indistinguishable from a
// fresh one; only engines matching the campaign's exact machine config
// and lane need are reused.
var batchPool = sync.Pool{}

// getBatch returns a pooled or fresh engine for the config, or an error
// when the configuration cannot be batched.
func getBatch(mcfg machine.Config, lanes int) (*machine.Batch, error) {
	if v := batchPool.Get(); v != nil {
		b := v.(*machine.Batch)
		if b.Config() == mcfg && b.MaxLanes() >= lanes {
			return b, nil
		}
		// Wrong geometry: drop it rather than chaining Gets.
	}
	return machine.NewBatch(mcfg, lanes)
}

// newBatchSlots builds one batchSlot per worker and wires each harness's
// Det source. It returns nil when the machine configuration cannot be
// batched (a cache or BTB geometry over 8 ways); the caller falls back
// to the sequential path. The slots' engines must be released back to
// the pool with releaseBatchSlots when the campaign finishes.
func newBatchSlots(mcfg machine.Config, harnesses []*pmc.Harness, lanes int) []*batchSlot {
	slots := make([]*batchSlot, len(harnesses))
	for w := range slots {
		b, err := getBatch(mcfg, lanes)
		if err != nil {
			return nil
		}
		slots[w] = &batchSlot{batch: b, cache: &detCache{}}
		harnesses[w].Det = slots[w].cache
	}
	return slots
}

// releaseBatchSlots returns every slot's engine to the pool. Invalidate
// drops the engine's program-keyed tables so a pooled engine does not
// pin the campaign's program in memory.
func releaseBatchSlots(slots []*batchSlot) {
	for _, s := range slots {
		if s == nil || s.batch == nil {
			continue
		}
		s.batch.Invalidate()
		batchPool.Put(s.batch)
		s.batch = nil
	}
}

// measureChunk drives the layouts of one chunk [lo, hi) on worker w,
// phase by phase:
//
//	A. one guarded build attempt per layout (exactly attempt one of
//	   measureLayout);
//	B. one batched trace walk over every successfully built layout,
//	   priming the worker's det cache — a batch failure just leaves the
//	   cache empty and phase C simulates sequentially, counted as a
//	   batch-walk fallback;
//	C. per layout, the sequential pipeline: measureBuilt through the
//	   (possibly fault-wrapped) measure seam, then on any failure the
//	   same retry tail measureLayout runs — full build+measure attempts
//	   with the campaign's backoff, identical error wrapping, identical
//	   attempt accounting.
//
// A panic in a per-layout phase is that layout's final failure (the
// sequential supervisor does not retry panics); a panic in the shared
// batch walk is treated as a batch failure, costing only the shortcut.
// deliver and fail receive each layout's outcome exactly as the
// sequential sweep body would produce it.
func measureChunk(cfg *CampaignConfig, co *campaignObs, slot *batchSlot, meas measureSeam, build buildSeam, trace *interp.Trace, lo, hi, w int, done []bool, deliver func(i int, o Observation), fail func(i int, err error)) {
	slot.idxs = slot.idxs[:0]
	for i := lo; i < hi; i++ {
		if done[i] {
			if co != nil {
				co.o.Prog().Done()
			}
			continue
		}
		slot.idxs = append(slot.idxs, i)
	}
	if len(slot.idxs) == 0 {
		return
	}
	slot.exes = slot.exes[:0]
	slot.errs = slot.errs[:0]
	slot.cache.reset()

	// Phase A: attempt one's build for every layout in the chunk.
	for _, i := range slot.idxs {
		if co != nil {
			co.attempts.Inc()
		}
		var exe *toolchain.Executable
		err := runGuarded(func(_, _ int) error {
			var berr error
			exe, berr = buildLayout(cfg, co, build, i, w)
			return berr
		}, w, i)
		if err != nil {
			exe = nil
		}
		slot.exes = append(slot.exes, exe)
		slot.errs = append(slot.errs, err)
	}

	// Phase B: one trace walk for every built layout. The spec mirrors
	// measureBuilt's exactly (Batch.Run ignores the noise fields).
	slot.specs = slot.specs[:0]
	for j, i := range slot.idxs {
		if slot.exes[j] == nil {
			continue
		}
		hs := uint64(0)
		if cfg.HeapMode == heap.ModeRandomized {
			hs = cfg.heapSeed(i)
		}
		slot.specs = append(slot.specs, machine.RunSpec{
			Exe:      slot.exes[j],
			Trace:    trace,
			HeapMode: cfg.HeapMode,
			HeapSeed: hs,
		})
	}
	if len(slot.specs) > 0 {
		_ = slot.walk(co) // a failed walk is counted; phase C replays sequentially
	}

	// Phase C: the per-layout pipeline, sequential semantics verbatim.
	for j, i := range slot.idxs {
		layoutStage := newLayoutStage(cfg, co, i, w)
		var o Observation
		err := slot.errs[j]
		if err == nil {
			err = runGuarded(func(_, _ int) error {
				var merr error
				o, merr = measureBuilt(cfg, co, meas, trace, slot.exes[j], i, w)
				return merr
			}, w, i)
		}
		if err == nil {
			o.Attempts = 1
		} else if _, isPanic := err.(*PanicError); isPanic {
			// A recovered panic is the layout's final failure: the
			// sequential supervisor never retries across a panic.
			layoutStage.end()
			fail(i, err)
			continue
		} else {
			firstErr := err
			err = runGuarded(func(_, _ int) error {
				var rerr error
				o, rerr = resumeLayout(cfg, co, meas, build, trace, i, w, firstErr)
				return rerr
			}, w, i)
			if err != nil {
				layoutStage.end()
				fail(i, err)
				continue
			}
		}
		layoutStage.end()
		deliver(i, o)
	}
}

// resumeLayout is measureLayout's retry tail: attempt one already failed
// with firstErr, so run attempts 2..maxAttempts with the same backoff
// spacing, retry telemetry, status stamping and error wrapping as the
// sequential loop.
func resumeLayout(cfg *CampaignConfig, co *campaignObs, meas measureSeam, build buildSeam, trace *interp.Trace, i, w int, firstErr error) (Observation, error) {
	attempts := cfg.maxAttempts()
	lastErr := firstErr
	for a := 1; a < attempts; a++ {
		if co != nil {
			co.o.Prog().Retry()
		}
		if serr := cfg.Backoff.Sleep(cfg.context(), a, cfg.BaseSeed, cfg.layoutSeed(i)); serr != nil {
			return Observation{}, fmt.Errorf("core: layout %d: retry backoff interrupted: %w", i, serr)
		}
		obs, err := measureLayoutOnce(cfg, co, meas, build, trace, i, w)
		if err == nil {
			obs.Attempts = a + 1
			obs.Status = StatusRetried
			return obs, nil
		}
		lastErr = err
	}
	return Observation{}, fmt.Errorf("core: layout %d failed after %d attempts: %w", i, attempts, lastErr)
}

// newLayoutStage opens the per-layout observability stage the sequential
// measureLayout opens: a "layout" span on the worker and the layout
// duration histogram.
func newLayoutStage(cfg *CampaignConfig, co *campaignObs, i, w int) stage {
	if co == nil {
		return stage{}
	}
	layID := co.layoutID(cfg, i)
	return stage{
		co:   co,
		span: co.o.StartSpan("layout", layID, co.campID, w+1),
		hist: co.layoutSec,
		t0:   time.Now(),
	}
}
