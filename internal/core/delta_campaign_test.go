package core_test

import (
	"fmt"
	"testing"

	"interferometry/internal/core"
	"interferometry/internal/faultinject"
	"interferometry/internal/heap"
	"interferometry/internal/obs"
	"interferometry/internal/pmc"
)

// The Delta tests pin the campaign's second replay path per chunk. They
// once forced the delta-replay engine (DESIGN.md §15); with that engine
// gone, the only alternative to a chunk's batched walk is the fallback
// it takes when the walk fails: every layout of the chunk replays on the
// scalar machine. These tests force that fallback on every chunk, across
// the matrix the batched tests cover, and require it to be invisible in
// the bytes.

// forcedFallbackBase is a data segment base beyond machine.Batch's
// address limit: the scalar machine replays it, every batched walk
// refuses it.
const forcedFallbackBase = 1 << 44

// fallbackCounter reads the batch-walk fallback counter from m.
func fallbackCounter(m *obs.Metrics) uint64 {
	return m.Counter("interferometry_batch_walk_fallbacks_total", "").Value()
}

// runFallbackPair runs cfg sequentially and batched with every batched
// walk forced to fail, checks that the batched run did fall back, and
// returns both datasets. mutate, when set, is applied to both runs.
func runFallbackPair(t *testing.T, cfg core.CampaignConfig, batch int, mutate func(*core.CampaignConfig)) (seq, fb *core.Dataset) {
	t.Helper()
	cfg.Link.DataBase = forcedFallbackBase
	m := obs.NewMetrics()
	seq, fb = runPair(t, cfg, batch, func(c *core.CampaignConfig) {
		if mutate != nil {
			mutate(c)
		}
		if c.BatchSize != 1 {
			c.Obs = &obs.Observer{Metrics: m}
		}
	})
	if fallbackCounter(m) == 0 {
		t.Fatal("no batched walk fell back; the forced fallback did not engage")
	}
	return seq, fb
}

// TestDeltaCampaignIdenticalToSequential forces the batch-walk fallback
// onto every chunk across heap modes, fidelities and batch widths
// (including the auto width): sequential ≡ fallback replay.
func TestDeltaCampaignIdenticalToSequential(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mode     heap.Mode
		fidelity pmc.Fidelity
		batch    int
	}{
		{"bump/fast/b4", heap.ModeBump, pmc.FidelityFast, 4},
		{"bump/paper/b2", heap.ModeBump, pmc.FidelityPaper, 2},
		{"rand/fast/b7", heap.ModeRandomized, pmc.FidelityFast, 7},
		{"rand/paper/b4", heap.ModeRandomized, pmc.FidelityPaper, 4},
		{"bump/fast/auto", heap.ModeBump, pmc.FidelityFast, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCampaign(13)
			cfg.HeapMode = tc.mode
			cfg.Fidelity = tc.fidelity
			cfg.Workers = 2
			seq, fb := runFallbackPair(t, cfg, tc.batch, nil)
			assertDatasetsIdentical(t, seq, fb)
		})
	}
}

// TestDeltaCampaignWithFaultsIdentical forces the fallback under the
// deterministic fault storm of TestBatchedCampaignWithFaultsIdentical:
// injected build/measure errors, panics and corruptions, with retries,
// a failure budget and the outlier screen engaged. Chunks that fall
// back must fail, retry and recover in exactly the same places as the
// sequential supervisor.
func TestDeltaCampaignWithFaultsIdentical(t *testing.T) {
	seeds := []uint64{3, 17, 29, 101}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := smallCampaign(15)
			cfg.Workers = 2
			cfg.MaxAttempts = 3
			cfg.FailureBudget = 15
			cfg.OutlierMAD = 8
			mutate := func(c *core.CampaignConfig) {
				c.Faults = faultinject.New(seed, faultinject.Config{
					Build:   faultinject.Rates{Error: 0.15, Panic: 0.05, Corrupt: 0.1, MaxFaults: 2},
					Measure: faultinject.Rates{Error: 0.15, Corrupt: 0.1, MaxFaults: 2},
				})
			}
			seq, fb := runFallbackPair(t, cfg, 4, mutate)
			assertDatasetsIdentical(t, seq, fb)
		})
	}
}

// TestDeltaCampaignManySeeds sweeps base seeds, heap modes, worker
// counts and batch widths with the fallback forced — the campaign-level
// property sweep mirroring TestBatchedCampaignManySeeds.
func TestDeltaCampaignManySeeds(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		cfg := smallCampaign(9)
		cfg.BaseSeed = uint64(1000 + trial*7919)
		if trial%2 == 1 {
			cfg.HeapMode = heap.ModeRandomized
		}
		cfg.Workers = 1 + trial%3
		batch := []int{2, 3, 7, 9}[trial%4]
		seq, fb := runFallbackPair(t, cfg, batch, nil)
		assertDatasetsIdentical(t, seq, fb)
	}
}

// TestDeltaSearchIdentical pins the search path: an evolutionary
// layout-search campaign whose PrimeGenomes walks all fail must produce
// the same generations (fingerprints, measurements, provenance) as the
// sequential search.
func TestDeltaSearchIdentical(t *testing.T) {
	base := core.SearchConfig{
		Campaign:    smallCampaign(0),
		Population:  4,
		Generations: 3,
	}
	base.Campaign.Layouts = 1
	base.Campaign.Workers = 2
	base.Campaign.Link.DataBase = forcedFallbackBase

	seq := base
	seq.Campaign.BatchSize = 1
	want, err := core.RunSearch(seq)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	fb := base
	fb.Campaign.Obs = &obs.Observer{Metrics: m}
	got, err := core.RunSearch(fb)
	if err != nil {
		t.Fatal(err)
	}
	if fallbackCounter(m) == 0 {
		t.Fatal("no search walk fell back; the forced fallback did not engage")
	}
	if len(want.Generations) != len(got.Generations) {
		t.Fatalf("generation counts differ: %d vs %d", len(want.Generations), len(got.Generations))
	}
	for gi := range want.Generations {
		wg, gg := want.Generations[gi], got.Generations[gi]
		if len(wg.Individuals) != len(gg.Individuals) {
			t.Fatalf("gen %d: individual counts differ", gi)
		}
		for i := range wg.Individuals {
			wi, ci := wg.Individuals[i], gg.Individuals[i]
			if wi.Genome.Fingerprint() != ci.Genome.Fingerprint() {
				t.Errorf("gen %d idx %d: fingerprints differ", gi, i)
			}
			if wi.Obs != ci.Obs {
				t.Errorf("gen %d idx %d: observations differ:\nsequential %+v\nfallback   %+v", gi, i, wi.Obs, ci.Obs)
			}
		}
	}
}
