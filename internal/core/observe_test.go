package core_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"interferometry/internal/core"
	"interferometry/internal/faultinject"
	"interferometry/internal/obs"
)

// observedCampaign runs a small campaign with full observability and
// returns the dataset, trace events and metrics registry.
func observedCampaign(t *testing.T, layouts int) (*core.Dataset, []obs.TraceEvent, *obs.Metrics) {
	return observedBatchCampaign(t, layouts, 0, 0)
}

// observedBatchCampaign is observedCampaign at a given worker count and
// batch width (zero means the defaults).
func observedBatchCampaign(t *testing.T, layouts, workers, batch int) (*core.Dataset, []obs.TraceEvent, *obs.Metrics) {
	t.Helper()
	var traceBuf, progBuf bytes.Buffer
	m := obs.NewMetrics()
	tr := obs.NewTracer(&traceBuf)
	cfg := smallCampaign(layouts)
	cfg.Workers = workers
	cfg.BatchSize = batch
	cfg.Obs = &obs.Observer{
		Metrics:  m,
		Tracer:   tr,
		Progress: obs.NewProgress(&progBuf, "test", 0, 0),
	}
	ds, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadTrace(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return ds, events, m
}

// observedRows are the batch widths the observability tests cover on
// two workers: sequential, where no chunk walks, and the automatic
// width, where each worker's one chunk of layouts/2 walks once.
var observedRows = []struct {
	name  string
	batch int
	walks func(layouts int) int
}{
	{name: "sequential", batch: 1, walks: func(int) int { return 0 }},
	{name: "auto", batch: 0, walks: func(int) int { return 2 }},
}

// TestObservedCampaignSpanTree pins the acceptance criterion: the trace
// covers every layout's compile→run→fit stages, each stage parented on
// its layout span, each layout parented on the campaign span, and every
// walked chunk is one walk span on the campaign span.
func TestObservedCampaignSpanTree(t *testing.T) {
	for _, row := range observedRows {
		t.Run(row.name, func(t *testing.T) {
			const layouts = 8
			_, events, _ := observedBatchCampaign(t, layouts, 2, row.batch)
			checkSpanTree(t, events, layouts, row.walks(layouts))
		})
	}
}

func checkSpanTree(t *testing.T, events []obs.TraceEvent, layouts, walks int) {
	t.Helper()

	byID := map[uint64]obs.TraceEvent{}
	parentOf := map[uint64]uint64{}
	kids := map[uint64]map[string]int{} // parent -> stage name -> count
	var campID uint64
	for _, ev := range events {
		id, err := ev.SpanID()
		if err != nil {
			t.Fatalf("event %q has no span id: %v", ev.Name, err)
		}
		parent, err := ev.ParentID()
		if err != nil {
			t.Fatalf("event %q has no parent id: %v", ev.Name, err)
		}
		byID[id] = ev
		parentOf[id] = parent
		if kids[parent] == nil {
			kids[parent] = map[string]int{}
		}
		kids[parent][ev.Name]++
		if ev.Name == "campaign" {
			campID = id
		}
	}
	if campID == 0 {
		t.Fatal("no campaign span")
	}
	if got := kids[campID]["layout"]; got != layouts {
		t.Fatalf("campaign has %d layout spans, want %d", got, layouts)
	}
	if got := kids[campID]["walk"]; got != walks {
		t.Fatalf("campaign has %d walk spans, want %d", got, walks)
	}
	layoutSpans := 0
	for id, ev := range byID {
		if ev.Name != "layout" {
			continue
		}
		layoutSpans++
		for _, stage := range []string{"compile", "run", "fit"} {
			if kids[id][stage] != 1 {
				t.Errorf("layout span %x has %d %q stages, want 1", id, kids[id][stage], stage)
			}
		}
		if parentOf[id] != campID {
			t.Errorf("layout span %x parented on %x, not the campaign", id, parentOf[id])
		}
	}
	if layoutSpans != layouts {
		t.Fatalf("got %d layout spans, want %d", layoutSpans, layouts)
	}
}

// TestObservedCampaignDeterministicSpanIDs pins the second half of the
// acceptance criterion: identical seeds produce identical span IDs, run
// to run, whatever the scheduling.
func TestObservedCampaignDeterministicSpanIDs(t *testing.T) {
	idSet := func() map[string]bool {
		_, events, _ := observedCampaign(t, 6)
		set := map[string]bool{}
		for _, ev := range events {
			set[ev.Name+"/"+ev.Args["span"]+"/"+ev.Args["parent"]] = true
		}
		return set
	}
	a, b := idSet(), idSet()
	if len(a) == 0 {
		t.Fatal("no spans recorded")
	}
	for k := range a {
		if !b[k] {
			t.Errorf("span %s present in first run only", k)
		}
	}
	for k := range b {
		if !a[k] {
			t.Errorf("span %s present in second run only", k)
		}
	}
}

func TestObservedCampaignMetrics(t *testing.T) {
	for _, row := range observedRows {
		t.Run(row.name, func(t *testing.T) {
			const layouts = 10
			ds, _, m := observedBatchCampaign(t, layouts, 2, row.batch)
			checkCampaignMetrics(t, ds, m, layouts, row.walks(layouts))
		})
	}
}

func checkCampaignMetrics(t *testing.T, ds *core.Dataset, m *obs.Metrics, n, walks int) {
	t.Helper()
	layouts := uint64(n)
	if n := m.Counter("interferometry_layouts_done_total", "").Value(); n != layouts {
		t.Errorf("layouts_done = %d, want %d", n, layouts)
	}
	if n := m.Counter("interferometry_attempts_total", "").Value(); n != layouts {
		t.Errorf("attempts = %d, want %d (no retries in a clean campaign)", n, layouts)
	}
	if n := m.Counter("interferometry_builder_builds_total", "").Value(); n != layouts {
		t.Errorf("builder builds = %d, want %d", n, layouts)
	}
	if n := m.Counter("interferometry_pmc_measurements_total", "").Value(); n != layouts {
		t.Errorf("pmc measurements = %d, want %d", n, layouts)
	}
	if m.Histogram("interferometry_stage_run_seconds", "", obs.DurationBuckets).Count() != layouts {
		t.Error("run-stage histogram did not see every layout")
	}
	if n := m.Histogram("interferometry_stage_walk_seconds", "", obs.DurationBuckets).Count(); n != uint64(walks) {
		t.Errorf("walk-stage histogram saw %d walks, want %d", n, walks)
	}
	busy := m.Gauge("interferometry_worker_busy_seconds", "").Value()
	if busy <= 0 {
		t.Errorf("worker busy time %v, want > 0", busy)
	}
	if m.Histogram("interferometry_queue_wait_seconds", "", obs.DurationBuckets).Count() != layouts {
		t.Error("queue-wait histogram did not see every index")
	}
	if ds.EffectiveN() != n {
		t.Errorf("EffectiveN = %d", ds.EffectiveN())
	}
	// The JSON export round-trips.
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("metrics JSON export invalid")
	}
}

// TestObservedCampaignIdenticalToUnobserved pins the zero-interference
// contract: attaching an observer must not change a single measured bit.
func TestObservedCampaignIdenticalToUnobserved(t *testing.T) {
	plain, err := core.RunCampaign(smallCampaign(6))
	if err != nil {
		t.Fatal(err)
	}
	observed, _, _ := observedCampaign(t, 6)
	for i := range plain.Obs {
		if plain.Obs[i] != observed.Obs[i] {
			t.Fatalf("observation %d differs under observation:\n%+v\n%+v", i, plain.Obs[i], observed.Obs[i])
		}
	}
}

// TestObservedFaultyCampaign exercises the injected-fault counters and
// the retry/progress metrics together.
func TestObservedFaultyCampaign(t *testing.T) {
	var progBuf bytes.Buffer
	m := obs.NewMetrics()
	cfg := smallCampaign(12)
	cfg.MaxAttempts = 4
	cfg.FailureBudget = 12
	cfg.Faults = faultinject.New(99, faultinject.Config{
		Build:   faultinject.Rates{Error: 0.5, MaxFaults: 2},
		Measure: faultinject.Rates{Error: 0.3, MaxFaults: 2},
	})
	cfg.Obs = &obs.Observer{Metrics: m, Progress: obs.NewProgress(&progBuf, "faulty", 0, 0)}
	ds, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	injected := uint64(cfg.Faults.Injected())
	if injected == 0 {
		t.Fatal("fault injector fired nothing; raise the rates")
	}
	if n := m.Counter("interferometry_faults_injected_total", "").Value(); n != injected {
		t.Errorf("faults_injected metric %d, injector counted %d", n, injected)
	}
	retried := uint64(0)
	for _, o := range ds.Obs {
		if o.Status == core.StatusRetried {
			retried++
		}
	}
	if n := m.Counter("interferometry_layouts_retried_total", "").Value(); n != retried {
		t.Errorf("layouts_retried metric %d, dataset has %d retried observations", n, retried)
	}
	if n := m.Counter("interferometry_layouts_failed_total", "").Value(); n != uint64(len(ds.Failures)) {
		t.Errorf("layouts_failed metric %d, dataset has %d failures", n, len(ds.Failures))
	}
	attempts := m.Counter("interferometry_attempts_total", "").Value()
	if attempts <= uint64(len(ds.Obs)) {
		t.Errorf("attempts %d should exceed layouts %d when faults fire", attempts, len(ds.Obs))
	}
	// The final progress line reflects the supervisor's view.
	cfg.Obs.Prog().Finish()
	line := progBuf.String()
	if !strings.Contains(line, "faulty") {
		t.Errorf("missing progress output: %q", line)
	}
}

// TestObservedSweepsEmitSpans checks the campaign-level sweep spans
// (model fit, outlier screen) appear with deterministic identities.
func TestObservedSweepsEmitSpans(t *testing.T) {
	var traceBuf bytes.Buffer
	tr := obs.NewTracer(&traceBuf)
	cfg := smallCampaign(8)
	cfg.OutlierMAD = 0.001 // absurdly tight: flags almost everything
	cfg.Obs = &obs.Observer{Tracer: tr}
	ds, err := core.RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The span is emitted whether or not the fit converges.
	_, _ = ds.MPKIModel()
	tr.Close()
	events, err := obs.ReadTrace(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, ev := range events {
		names[ev.Name]++
	}
	if names["outlier-screen"] != 1 {
		t.Errorf("outlier-screen spans = %d, want 1", names["outlier-screen"])
	}
	if names["model-fit"] != 1 {
		t.Errorf("model-fit spans = %d, want 1", names["model-fit"])
	}
}
