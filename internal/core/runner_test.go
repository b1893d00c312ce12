package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/faultinject"
	"interferometry/internal/jobqueue/backoff"
)

// TestLayoutRunnerMatchesRunCampaign drives every layout through the
// exported runner — out of order, on varying worker slots — and checks
// the assembled dataset is interchangeable with RunCampaign's.
func TestLayoutRunnerMatchesRunCampaign(t *testing.T) {
	cfg := smallCampaign(8)
	want, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	r, err := core.NewLayoutRunner(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Layouts() != 8 || r.Workers() != 3 {
		t.Fatalf("Layouts()=%d Workers()=%d", r.Layouts(), r.Workers())
	}
	obs := make([]core.Observation, 8)
	for n, i := range []int{5, 0, 7, 2, 1, 6, 3, 4} {
		exe, err := r.Build(core.LayoutUnit(i))
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
		o, err := r.Measure(n%3, core.LayoutUnit(i), exe)
		if err != nil {
			t.Fatalf("measure %d: %v", i, err)
		}
		obs[i] = core.CompletedObservation(o, 1)
	}
	ds, err := r.Dataset(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Obs) != len(want.Obs) {
		t.Fatalf("got %d observations, want %d", len(ds.Obs), len(want.Obs))
	}
	for i := range want.Obs {
		if ds.Obs[i] != want.Obs[i] {
			t.Fatalf("observation %d differs: runner %+v vs campaign %+v", i, ds.Obs[i], want.Obs[i])
		}
	}
	if ds.Trace.Instrs != want.Trace.Instrs {
		t.Error("trace differs between runner and campaign")
	}

	// The chunk driver over a shuffled chunk yields the same
	// observations, attempts stamped, in the chunk's order.
	order := []int{3, 6, 0, 5}
	units := make([]core.Unit, len(order))
	for j, i := range order {
		units[j] = core.LayoutUnit(i)
	}
	r.Run(1, units, 1, func(j int, o core.Observation, err error) {
		if err != nil {
			t.Fatalf("run layout %d: %v", order[j], err)
		}
		if o != want.Obs[order[j]] {
			t.Fatalf("chunk observation of layout %d differs: %+v vs %+v", order[j], o, want.Obs[order[j]])
		}
	})

	// A runner over an already interpreted trace — a scheduler sharing
	// one trace across campaigns — measures the same bytes.
	shared, err := core.NewLayoutRunnerOn(cfg, want.Trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	shared.Run(0, units, 1, func(j int, o core.Observation, err error) {
		if err != nil || o != want.Obs[order[j]] {
			t.Fatalf("shared-trace observation of layout %d differs (%v): %+v vs %+v", order[j], err, o, want.Obs[order[j]])
		}
	})
}

// TestLayoutRunnerRepeatedExecutionIdentical re-runs the same layout:
// duplicate executions (the lease-expiry case) must be byte-identical.
func TestLayoutRunnerRepeatedExecutionIdentical(t *testing.T) {
	r, err := core.NewLayoutRunner(smallCampaign(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	var prev core.Observation
	for n := 0; n < 3; n++ {
		exe, err := r.Build(core.LayoutUnit(1))
		if err != nil {
			t.Fatal(err)
		}
		o, err := r.Measure(n%2, core.LayoutUnit(1), exe)
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 && o != prev {
			t.Fatalf("execution %d of layout 1 differs: %+v vs %+v", n, o, prev)
		}
		prev = o
	}
}

func TestLayoutRunnerValidation(t *testing.T) {
	if _, err := core.NewLayoutRunner(core.CampaignConfig{}, 1); err == nil {
		t.Error("empty config accepted")
	}
	r, err := core.NewLayoutRunner(smallCampaign(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Build(core.LayoutUnit(2)); err == nil {
		t.Error("out-of-range layout accepted by Build")
	}
	if _, err := r.Measure(1, core.LayoutUnit(0), nil); err == nil {
		t.Error("out-of-range worker slot accepted by Measure")
	}
	r.Run(1, []core.Unit{core.LayoutUnit(0)}, 1, func(_ int, _ core.Observation, err error) {
		if err == nil {
			t.Error("out-of-range worker slot accepted by Run")
		}
	})
	fo := r.Failed(core.LayoutUnit(1), 3)
	if fo.Status != core.StatusFailed || fo.Attempts != 3 || fo.LayoutSeed != r.Seed(core.LayoutUnit(1)) || fo.Cycles != 0 {
		t.Errorf("Failed = %+v", fo)
	}
	if _, err := r.Dataset(make([]core.Observation, 1), nil); err == nil {
		t.Error("short observation slice accepted by Dataset")
	}
	ds, err := r.Dataset(make([]core.Observation, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	other := smallCampaign(2)
	other.Program = ds.Trace.Program
	other.InputSeed = ds.Trace.InputSeed + 1
	if _, err := core.NewLayoutRunnerOn(other, ds.Trace, 1); err == nil {
		t.Error("a trace of another input accepted by NewLayoutRunnerOn")
	}
}

// TestLayoutRunnerSeamsCarryFaults: the runner's seams include the
// configured injector, and an injected panic comes back as a retriable
// error carrying the recovered *PanicError.
func TestLayoutRunnerSeamsCarryFaults(t *testing.T) {
	cfg := smallCampaign(2)
	cfg.Faults = faultinject.New(11, faultinject.Config{
		Build: faultinject.Rates{Panic: 1, MaxFaults: 1},
	})
	r, err := core.NewLayoutRunner(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Build(core.LayoutUnit(0))
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("injected build panic returned %v, want *PanicError", err)
	}
	// MaxFaults exhausted: the retry goes clean.
	if _, err := r.Build(core.LayoutUnit(0)); err != nil {
		t.Fatalf("retry after injected panic: %v", err)
	}
}

// TestCheckpointSinkRoundTrip writes observations through the sink and
// resumes them through a second sink and through RunCampaign itself.
func TestCheckpointSinkRoundTrip(t *testing.T) {
	cfg := smallCampaign(4)
	cfg.Checkpoint = core.CheckpointConfig{Dir: t.TempDir()}
	want, err := core.RunCampaign(smallCampaign(4))
	if err != nil {
		t.Fatal(err)
	}

	sink, err := core.OpenCheckpointSink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.Restored()) != 0 {
		t.Fatalf("fresh sink restored %d observations", len(sink.Restored()))
	}
	// Persist half the campaign, as a partial run would.
	sink.Put(0, want.Obs[0])
	sink.Put(2, want.Obs[2])
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoint.Resume = true
	resumed, err := core.OpenCheckpointSink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := resumed.Restored()
	if len(got) != 2 || got[0] != want.Obs[0] || got[2] != want.Obs[2] {
		t.Fatalf("restored %+v, want layouts 0 and 2", got)
	}
	sink.Put(1, want.Obs[1]) // writes after Close surface at the writer; just finish the resumed sink
	resumed.Put(1, want.Obs[1])
	resumed.Put(3, want.Obs[3])
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}

	// The completed checkpoint resumes under RunCampaign byte-identically.
	ds, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Obs {
		if ds.Obs[i] != want.Obs[i] {
			t.Fatalf("observation %d differs after checkpoint resume", i)
		}
	}
	if _, err := core.OpenCheckpointSink(smallCampaign(1)); err == nil {
		t.Error("sink without a directory accepted")
	}
}

// TestCampaignBackoffSpacesRetries: a faulty campaign with a backoff
// policy still converges to the clean result, and cancellation during a
// backoff sleep aborts the campaign promptly.
func TestCampaignBackoffSpacesRetries(t *testing.T) {
	clean, err := core.RunCampaign(smallCampaign(6))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCampaign(6)
	cfg.MaxAttempts = 3
	cfg.Faults = faultinject.New(21, faultinject.Config{
		Measure: faultinject.Rates{Error: 0.5, MaxFaults: 2},
	})
	cfg.Backoff = backoff.Policy{Base: time.Millisecond, Cap: 4 * time.Millisecond, Jitter: 0.5}
	ds, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	for i := range ds.Obs {
		if ds.Obs[i].Status == core.StatusRetried {
			retried++
		}
		if ds.Obs[i].Cycles != clean.Obs[i].Cycles || ds.Obs[i].LayoutSeed != clean.Obs[i].LayoutSeed {
			t.Fatalf("observation %d differs from clean run under backoff", i)
		}
	}
	if retried == 0 {
		t.Error("fault injection at 50% never forced a retry")
	}

	// A canceled context interrupts the backoff sleep with the cause.
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errors.New("operator stop"))
	cfg2 := smallCampaign(2)
	cfg2.Context = ctx
	cfg2.MaxAttempts = 3
	cfg2.Backoff = backoff.Policy{Base: time.Minute}
	cfg2.Faults = faultinject.New(3, faultinject.Config{
		Measure: faultinject.Rates{Error: 1, MaxFaults: 1},
	})
	start := time.Now()
	if _, err := core.RunCampaign(cfg2); err == nil {
		t.Fatal("canceled campaign succeeded")
	}
	if time.Since(start) > 10*time.Second {
		t.Error("cancellation did not interrupt the backoff sleep")
	}
}
