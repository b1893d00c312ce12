package core

import (
	"sync"

	"interferometry/internal/machine"
	"interferometry/internal/pmc"
	"interferometry/internal/toolchain"
)

// This file is the campaign side of batched replay (machine.Batch): the
// runner's chunk driver (LayoutRunner.Run) builds every unit of a chunk,
// walks the trace ONCE for the whole chunk, and then drives every unit
// through the per-unit measure and retry pipeline. The walk primes a
// per-worker detCache that the worker's pmc.Harness consults through the
// pmc.DetSource seam, so the harness synthesizes each measurement from
// the batch's deterministic replay instead of re-simulating. Batch.Run
// is pinned bit-identical to Machine.RunDeterministic lane by lane,
// which makes a batched campaign byte-identical to a sequential one:
// same observations, same statuses, same CSV bytes.

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

// batchSlot is one worker's batched-replay state: the batch engine
// (nil until the worker first walks), the det cache its harness reads,
// and the chunk driver's per-chunk scratch.
type batchSlot struct {
	batch *machine.Batch
	cache detCache

	exes  []*toolchain.Executable
	errs  []error
	specs []machine.RunSpec
}

// walk runs the trace once for the slot's pending specs, guarded
// against panics, and records every lane's deterministic replay in the
// det cache. A failed walk adds no entries, so its units replay
// sequentially, and counts as a batch-walk fallback. Observed, the walk
// is a "walk" span on worker w's lane, parented on the campaign span
// and keyed by the chunk's first unit.
func (s *batchSlot) walk(co *campaignObs, w int, key uint64) {
	st := co.walkStart(key, w)
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
	st.end()
	if err != nil && co != nil {
		co.batchFallbacks.Inc()
	}
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
// when the configuration cannot be batched (a cache or BTB geometry over
// 8 ways).
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

// engine readies the slot's batch engine with room for lanes layouts,
// returning a too-narrow one to the pool first.
func (s *batchSlot) engine(mcfg machine.Config, lanes int) error {
	if s.batch != nil && s.batch.MaxLanes() >= lanes {
		return nil
	}
	s.release()
	b, err := getBatch(mcfg, lanes)
	if err != nil {
		return err
	}
	s.batch = b
	return nil
}

// release returns the slot's engine to the pool. Invalidate drops the
// engine's program-keyed tables so a pooled engine does not pin the
// campaign's program in memory.
func (s *batchSlot) release() {
	if s.batch == nil {
		return
	}
	s.batch.Invalidate()
	batchPool.Put(s.batch)
	s.batch = nil
}
