package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"interferometry/internal/core"
	"interferometry/internal/faultinject"
	"interferometry/internal/heap"
	"interferometry/internal/obs"
	"interferometry/internal/pmc"
	"interferometry/internal/progen"
	"interferometry/internal/results"
)

// runPair runs the same campaign config twice — sequentially
// (BatchSize 1) and batched — and returns both datasets. mutate lets a
// caller attach per-run state (a fresh fault injector) to each config.
func runPair(t *testing.T, cfg core.CampaignConfig, batch int, mutate func(*core.CampaignConfig)) (seq, bat *core.Dataset) {
	t.Helper()
	scfg := cfg
	scfg.BatchSize = 1
	if mutate != nil {
		mutate(&scfg)
	}
	seq, err := core.RunCampaign(scfg)
	if err != nil {
		t.Fatalf("sequential campaign: %v", err)
	}
	bcfg := cfg
	bcfg.BatchSize = batch
	if mutate != nil {
		mutate(&bcfg)
	}
	bat, err = core.RunCampaign(bcfg)
	if err != nil {
		t.Fatalf("batched campaign: %v", err)
	}
	return seq, bat
}

// assertDatasetsIdentical compares two datasets observation by
// observation (exact struct equality, so every counter and cycle float
// must match bit for bit after Go's == on float64) and then through both
// canonical CSV exports byte for byte.
func assertDatasetsIdentical(t *testing.T, seq, bat *core.Dataset) {
	t.Helper()
	if len(seq.Obs) != len(bat.Obs) {
		t.Fatalf("observation counts differ: sequential %d, batched %d", len(seq.Obs), len(bat.Obs))
	}
	for i := range seq.Obs {
		if seq.Obs[i] != bat.Obs[i] {
			t.Fatalf("observation %d differs:\nsequential %+v\nbatched    %+v", i, seq.Obs[i], bat.Obs[i])
		}
	}
	if len(seq.Failures) != len(bat.Failures) {
		t.Fatalf("failure counts differ: sequential %d, batched %d", len(seq.Failures), len(bat.Failures))
	}
	for i := range seq.Failures {
		if seq.Failures[i] != bat.Failures[i] {
			t.Fatalf("failure %d differs:\nsequential %+v\nbatched    %+v", i, seq.Failures[i], bat.Failures[i])
		}
	}
	for _, export := range []struct {
		name  string
		write func(*bytes.Buffer, *core.Dataset) error
	}{
		{"measurements", func(b *bytes.Buffer, ds *core.Dataset) error { return results.WriteMeasurementsCSV(b, ds) }},
		{"dataset", func(b *bytes.Buffer, ds *core.Dataset) error { return results.WriteDatasetCSV(b, ds) }},
	} {
		var sb, bb bytes.Buffer
		if err := export.write(&sb, seq); err != nil {
			t.Fatalf("%s CSV (sequential): %v", export.name, err)
		}
		if err := export.write(&bb, bat); err != nil {
			t.Fatalf("%s CSV (batched): %v", export.name, err)
		}
		if !bytes.Equal(sb.Bytes(), bb.Bytes()) {
			t.Errorf("%s CSV differs between sequential and batched runs", export.name)
		}
	}
}

// TestBatchedCampaignIdenticalToSequential pins the acceptance
// criterion: a batched campaign's results are byte-identical to the
// sequential campaign's, across heap modes, fidelities, batch widths
// (including widths that do not divide the layout count) and worker
// counts. The perlbench row runs a real suite benchmark at the default
// worker count, so its chunks carry a randomized heap over real
// allocation traffic.
func TestBatchedCampaignIdenticalToSequential(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mode     heap.Mode
		fidelity pmc.Fidelity
		batch    int
		workers  int
		perl     bool // 400.perlbench at an 80k budget instead of the small test program
	}{
		{"bump/fast/b4", heap.ModeBump, pmc.FidelityFast, 4, 2, false},
		{"bump/paper/b2", heap.ModeBump, pmc.FidelityPaper, 2, 2, false},
		{"rand/fast/b7", heap.ModeRandomized, pmc.FidelityFast, 7, 2, false},
		{"rand/paper/b4", heap.ModeRandomized, pmc.FidelityPaper, 4, 2, false},
		{"bump/fast/auto", heap.ModeBump, pmc.FidelityFast, 0, 2, false},
		{"perlbench/rand/fast/auto", heap.ModeRandomized, pmc.FidelityFast, 0, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCampaign(13)
			if tc.perl {
				spec, ok := progen.ByName("400.perlbench")
				if !ok {
					t.Fatal("suite benchmark missing")
				}
				cfg.Program = progen.MustGenerate(spec)
				cfg.Budget = 80_000
				cfg.Layouts = 50
				if testing.Short() {
					cfg.Layouts = 8
				}
				cfg.BaseSeed = 0x1471a57
			}
			cfg.HeapMode = tc.mode
			cfg.Fidelity = tc.fidelity
			cfg.Workers = tc.workers
			seq, bat := runPair(t, cfg, tc.batch, nil)
			assertDatasetsIdentical(t, seq, bat)
		})
	}
}

// TestBatchWalkFailureFallsBack forces the batched walk to fail: a data
// segment linked beyond the batch engine's address limit replays fine
// on the scalar path but is refused by machine.Batch. The chunk's
// layouts must then replay sequentially, byte-identical to the
// sequential run, and the one failed walk (one worker, one chunk) must
// be counted. A chunk driven through LayoutRunner.Run directly, as
// campaignd workers drive theirs, falls back and counts the same way.
func TestBatchWalkFailureFallsBack(t *testing.T) {
	cfg := smallCampaign(4)
	cfg.Workers = 1
	cfg.Link.DataBase = 1 << 44
	m := obs.NewMetrics()
	seq, bat := runPair(t, cfg, 4, func(c *core.CampaignConfig) {
		if c.BatchSize != 1 {
			c.Obs = &obs.Observer{Metrics: m}
		}
	})
	if len(seq.Failures) != 0 {
		t.Fatalf("sequential reference failed %d layouts: %+v", len(seq.Failures), seq.Failures)
	}
	assertDatasetsIdentical(t, seq, bat)
	fallbacks := m.Counter("interferometry_batch_walk_fallbacks_total", "")
	if n := fallbacks.Value(); n != 1 {
		t.Errorf("batch walk fallbacks = %d, want 1", n)
	}

	cfg.Obs = &obs.Observer{Metrics: m}
	r, err := core.NewLayoutRunner(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	units := []core.Unit{core.LayoutUnit(0), core.LayoutUnit(1), core.LayoutUnit(2), core.LayoutUnit(3)}
	r.Run(0, units, 1, func(j int, o core.Observation, err error) {
		if err != nil {
			t.Fatalf("layout %d after a failed walk: %v", j, err)
		}
		if o != seq.Obs[j] {
			t.Errorf("layout %d after a failed walk differs from the sequential run", j)
		}
	})
	if n := fallbacks.Value(); n != 2 {
		t.Errorf("batch walk fallbacks after the runner's chunk = %d, want 2", n)
	}
}

// TestBatchedCampaignWithFaultsIdentical runs the comparison under a
// deterministic fault storm — build errors, build panics, corrupted
// executables, measurement errors and corrupted measurements — with
// retries, a failure budget and the outlier screen all engaged. The
// injector's decisions are a pure function of (seed, site, layout seed,
// attempt), so the batched campaign must fail, retry and recover in
// exactly the same places as the sequential one.
func TestBatchedCampaignWithFaultsIdentical(t *testing.T) {
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
			seq, bat := runPair(t, cfg, 4, mutate)
			assertDatasetsIdentical(t, seq, bat)
		})
	}
}

// TestBatchedCampaignManySeeds is the campaign-level property sweep:
// across many base seeds, heap modes and batch widths, batched results
// must stay bit-identical to sequential ones. The machine-level
// property test (TestBatchMatchesSequential) covers the replay engine
// itself, including predictor overrides; this sweep covers everything
// the campaign layers on top — seed derivation, noise synthesis,
// retries, recording.
func TestBatchedCampaignManySeeds(t *testing.T) {
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
		seq, bat := runPair(t, cfg, batch, nil)
		assertDatasetsIdentical(t, seq, bat)
	}
}

// TestBatchSizeOneMatchesHistoric pins that BatchSize 1 and the
// pre-batching sequential path are the same code: a campaign with the
// default (auto) batch size and an explicitly sequential one agree.
// This is implied by the pair tests above but stated directly so a
// regression in the auto-width resolution cannot hide.
func TestBatchedCampaignPaperNaiveStaysSequential(t *testing.T) {
	cfg := smallCampaign(6)
	cfg.Fidelity = pmc.FidelityPaperNaive
	cfg.RunsPerGroup = 2
	seq, bat := runPair(t, cfg, 4, nil)
	assertDatasetsIdentical(t, seq, bat)
}
