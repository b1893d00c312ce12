package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"interferometry/internal/machine"
	"interferometry/internal/pmc"
	"interferometry/internal/testprog"
)

// corruptSeam always returns a zero-instruction counter read — the
// invalid-measurement shape a faulty harness hands the screen.
type corruptSeam struct{}

func (corruptSeam) Measure(machine.RunSpec) (pmc.Measurement, error) {
	return pmc.Measurement{Cycles: 12345}, nil
}

func TestMeasurementValid(t *testing.T) {
	if measurementValid(pmc.Measurement{Cycles: 100}) {
		t.Error("zero-instruction read counted as valid")
	}
	if !measurementValid(pmc.Measurement{Cycles: 100, Instructions: 80}) {
		t.Error("ordinary read counted as invalid")
	}
}

// screenFixture runs a clean campaign and hands back everything
// screenOutliers needs to be re-driven against a tampered copy. The
// returned config enables the screen at a vanishing threshold, so every
// valid layout off the median is flagged and re-measured too.
func screenFixture(t *testing.T, layouts int) (CampaignConfig, *Dataset) {
	t.Helper()
	cfg := CampaignConfig{
		Program:   testprog.ManyBranches(200, 400),
		InputSeed: 1,
		Budget:    120000,
		Layouts:   layouts,
		BaseSeed:  7,
	}
	ds, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Obs {
		if !measurementValid(ds.Obs[i].Measurement) {
			t.Fatalf("clean campaign produced invalid measurement at layout %d", i)
		}
	}
	cfg.OutlierMAD = 1e-9
	return cfg, ds
}

// screenRunner is a one-slot runner over the fixture's trace for cfg,
// measuring through meas when it is non-nil.
func screenRunner(cfg CampaignConfig, ds *Dataset, meas measureSeam) *LayoutRunner {
	r := newRunner(cfg, ds.Trace, 1)
	if meas != nil {
		r.meas[0] = meas
	}
	return r
}

// TestScreenDegradesUnrepairableCorruption: an invalid measurement whose
// re-measurement is also invalid must leave the screen as StatusFailed
// with a recorded failure — never as data, and never as a NaN panic in
// the median/MAD pass.
func TestScreenDegradesUnrepairableCorruption(t *testing.T) {
	cfg, ds := screenFixture(t, 8)
	const victim = 3
	ds.Obs[victim].Measurement = pmc.Measurement{Cycles: 999}

	screenOutliers(screenRunner(cfg, ds, corruptSeam{}), ds, nil)

	got := ds.Obs[victim]
	if got.Status != StatusFailed {
		t.Fatalf("unrepairable corrupt layout has status %v, want StatusFailed", got.Status)
	}
	if got.LayoutSeed != cfg.layoutSeed(victim) {
		t.Errorf("degraded observation lost its layout seed")
	}
	found := false
	for _, f := range ds.Failures {
		if f.Index == victim {
			found = true
			if !strings.Contains(f.Err, "corrupt counters") {
				t.Errorf("failure cause %q does not name corrupt counters", f.Err)
			}
		}
	}
	if !found {
		t.Error("no LayoutFailure recorded for the degraded layout")
	}
}

// TestScreenRepairsCorruptionByRemeasuring: with a working measurement
// seam, a corrupt stored observation is re-measured back to the clean
// value and marked retried.
func TestScreenRepairsCorruptionByRemeasuring(t *testing.T) {
	cfg, ds := screenFixture(t, 8)
	const victim = 5
	want := ds.Obs[victim].Measurement
	ds.Obs[victim].Measurement = pmc.Measurement{Cycles: 999}

	screenOutliers(screenRunner(cfg, ds, nil), ds, nil)

	got := ds.Obs[victim]
	if got.Status != StatusRetried {
		t.Fatalf("repaired layout has status %v, want StatusRetried", got.Status)
	}
	if got.Measurement != want {
		t.Fatal("re-measurement did not restore the clean counters")
	}
	if len(ds.Failures) != 0 {
		t.Fatalf("repairable corruption recorded failures: %v", ds.Failures)
	}
}

// TestScreenKeepsValidObservations: when every stored measurement is
// valid, a screen whose re-measurement seam is broken must not change a
// single observation — it improves datasets or leaves them alone.
func TestScreenKeepsValidObservations(t *testing.T) {
	cfg, ds := screenFixture(t, 8)
	before := append([]Observation(nil), ds.Obs...)

	screenOutliers(screenRunner(cfg, ds, corruptSeam{}), ds, nil)

	for i := range ds.Obs {
		if ds.Obs[i] != before[i] {
			t.Fatalf("layout %d changed: %+v -> %+v", i, before[i], ds.Obs[i])
		}
	}
	if len(ds.Failures) != 0 {
		t.Fatalf("screen of a valid dataset recorded failures: %v", ds.Failures)
	}
}

// TestScreenMedianExcludesInvalid: the invalid observation must not
// enter the median/MAD statistics. With an absurd corrupt CPI in a
// small spread of valid ones, a poisoned median would flag everything;
// the screen must re-measure only the corrupt entry.
func TestScreenMedianExcludesInvalid(t *testing.T) {
	cfg, ds := screenFixture(t, 8)
	const victim = 0
	ds.Obs[victim].Measurement = pmc.Measurement{Cycles: math.MaxUint64}

	screenOutliers(screenRunner(cfg, ds, nil), ds, nil)

	retried := 0
	for i := range ds.Obs {
		if ds.Obs[i].Status == StatusRetried {
			retried++
			if i != victim {
				t.Errorf("valid layout %d was re-measured and replaced", i)
			}
		}
	}
	if retried == 0 {
		t.Error("corrupt layout was not repaired")
	}
}

// panicSeam is a measurer whose every read panics.
type panicSeam struct{}

func (panicSeam) Measure(machine.RunSpec) (pmc.Measurement, error) {
	panic("counter read exploded")
}

// TestScreenSurfacesPanics: a re-measurement that panics is recovered
// by the pool and must settle like a failed re-measurement — the corrupt
// layout is degraded with the panic as its recorded cause — instead of
// vanishing with the layout left as data.
func TestScreenSurfacesPanics(t *testing.T) {
	cfg, ds := screenFixture(t, 8)
	const victim = 2
	ds.Obs[victim].Measurement = pmc.Measurement{Cycles: 999}

	if err := screenOutliers(screenRunner(cfg, ds, panicSeam{}), ds, nil); err != nil {
		t.Fatal(err)
	}
	if got := ds.Obs[victim].Status; got != StatusFailed {
		t.Fatalf("corrupt layout whose re-measurement panicked has status %v, want StatusFailed", got)
	}
	if len(ds.Failures) != 1 || ds.Failures[0].Index != victim || !strings.Contains(ds.Failures[0].Err, "worker panic") {
		t.Fatalf("failures %+v, want one for layout %d naming the worker panic", ds.Failures, victim)
	}
}

// TestScreenDisabledWithoutMAD: a zero OutlierMAD disables the screen,
// whoever calls it.
func TestScreenDisabledWithoutMAD(t *testing.T) {
	cfg, ds := screenFixture(t, 8)
	cfg.OutlierMAD = 0
	ds.Obs[4].Measurement = pmc.Measurement{Cycles: 999}
	before := append([]Observation(nil), ds.Obs...)

	if err := screenOutliers(screenRunner(cfg, ds, nil), ds, nil); err != nil {
		t.Fatal(err)
	}
	for i := range ds.Obs {
		if ds.Obs[i] != before[i] {
			t.Fatalf("disabled screen changed layout %d", i)
		}
	}
}

// countingSeam forwards to a measurer and counts its reads.
type countingSeam struct {
	inner measureSeam
	calls *atomic.Int64
}

func (c countingSeam) Measure(spec machine.RunSpec) (pmc.Measurement, error) {
	c.calls.Add(1)
	return c.inner.Measure(spec)
}

// TestScreenPoolFollowsMeasurers: the re-measurement pool is sized by
// the runner's measurer slots, not by cfg.Workers. A one-slot runner
// under a four-worker config must still re-measure every flagged
// layout; a pool sized from cfg.Workers would index slots 1..3
// and lose those layouts to recovered panics.
func TestScreenPoolFollowsMeasurers(t *testing.T) {
	remeasured := func(workers int) int64 {
		cfg, ds := screenFixture(t, 8)
		cfg.Workers = workers
		r := screenRunner(cfg, ds, nil)
		var calls atomic.Int64
		r.meas[0] = countingSeam{inner: r.meas[0], calls: &calls}
		if err := screenOutliers(r, ds, nil); err != nil {
			t.Fatal(err)
		}
		if len(ds.Failures) != 0 {
			t.Fatalf("workers=%d: screen recorded failures %v", workers, ds.Failures)
		}
		return calls.Load()
	}
	one := remeasured(1)
	if one < 2 {
		t.Fatalf("fixture flagged %d layouts, want several", one)
	}
	if four := remeasured(4); four != one {
		t.Fatalf("one measurer under Workers=4 re-measured %d layouts, Workers=1 re-measured %d", four, one)
	}
}

// cancelSeam forwards to a measurer after canceling the campaign's
// context, so the pool sees the cancellation once this read is done.
type cancelSeam struct {
	inner  measureSeam
	cancel context.CancelFunc
}

func (c cancelSeam) Measure(spec machine.RunSpec) (pmc.Measurement, error) {
	c.cancel()
	return c.inner.Measure(spec)
}

// TestScreenCancellation: a context canceled while flagged layouts are
// still waiting aborts the screen with the cancellation; one canceled
// after the last flagged layout settled does not.
func TestScreenCancellation(t *testing.T) {
	run := func(mad float64) (*Dataset, error) {
		cfg, ds := screenFixture(t, 8)
		cfg.OutlierMAD = mad
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg.Context = ctx
		ds.Obs[6].Measurement = pmc.Measurement{Cycles: 999}
		r := screenRunner(cfg, ds, nil)
		r.meas[0] = cancelSeam{inner: r.meas[0], cancel: cancel}
		return ds, screenOutliers(r, ds, nil)
	}
	// A huge threshold flags only the corrupt layout, so the one read
	// that cancels is also the last one.
	ds, err := run(1e9)
	if err != nil {
		t.Fatalf("screen whose flagged layouts all settled returned %v", err)
	}
	if ds.Obs[6].Status != StatusRetried {
		t.Fatalf("corrupt layout has status %v, want StatusRetried", ds.Obs[6].Status)
	}
	// A vanishing threshold flags several layouts; the first read
	// cancels and leaves the rest unsettled.
	if _, err := run(1e-9); !errors.Is(err, context.Canceled) {
		t.Fatalf("screen canceled with layouts unsettled returned %v, want context.Canceled", err)
	}
}
