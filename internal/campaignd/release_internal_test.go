package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/faultinject"
	"interferometry/internal/jobqueue"
	"interferometry/internal/obs"
	"interferometry/internal/results"
	"interferometry/internal/toolchain"
)

// The tests in this file pin what a finished campaign keeps and how
// tasks that race its terminal transition settle (DESIGN.md §9), and
// that admissions and worker runners share each workload's program and
// trace (DESIGN.md §10).

func releaseLayoutSpec(layouts int) JobSpec {
	return JobSpec{Benchmark: "429.mcf", Layouts: layouts, Budget: 60_000}
}

func releaseSearchSpec(pop, gens int) JobSpec {
	return JobSpec{Benchmark: "429.mcf", Budget: 60_000, Kind: KindSearch,
		Search: &SearchSpec{Population: pop, Generations: gens, Elite: 1, Tournament: 2}}
}

// failEveryBuild makes every build attempt fail, forever.
func failEveryBuild() *faultinject.Injector {
	return faultinject.New(7, faultinject.Config{
		Build: faultinject.Rates{Error: 1, MaxFaults: 1 << 20},
	})
}

// serve starts a server and its HTTP API; the cleanup drains it.
func serve(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Drain()
		hs.Close()
	})
	return s, hs.URL
}

// pool runs the server's task loop on n slots until stop, standing in
// for Start so a test can take the queue over once a campaign finished.
func pool(s *Server, n int) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for slot := 0; slot < n; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				lease, err := s.queue.Pop(ctx)
				if err != nil {
					return
				}
				s.runTask(slot, lease)
			}
		}(slot)
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// finished waits for a campaign's terminal transition.
func finished(t *testing.T, s *Server, id string) *campaign {
	t.Helper()
	c, ok := s.lookup(id)
	if !ok {
		t.Fatalf("campaign %s not admitted", id)
	}
	select {
	case <-c.finished:
	case <-time.After(time.Minute):
		t.Fatalf("campaign %s never finished", id)
	}
	return c
}

func httpGet(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, res.Header, body
}

// statusBody is the exact body writeJSON renders for st.
func statusBody(t *testing.T, st Status) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// paged concatenates a CSV endpoint's pages of limit rows, following
// X-Next-Offset.
func paged(t *testing.T, url string, limit int) []byte {
	t.Helper()
	sep := "?"
	if strings.Contains(url, "?") {
		sep = "&"
	}
	var out []byte
	for offset := "0"; offset != ""; {
		code, hdr, body := httpGet(t, fmt.Sprintf("%s%soffset=%s&limit=%d", url, sep, offset, limit))
		if code != http.StatusOK {
			t.Fatalf("GET %s page %s: status %d: %s", url, offset, code, body)
		}
		out = append(out, body...)
		offset = hdr.Get("X-Next-Offset")
	}
	return out
}

// served reads every endpoint a campaign's clients can read, keyed by
// request, each as "status code + body".
func served(t *testing.T, base string, c *campaign) map[string]string {
	t.Helper()
	paths := []string{"", "/result", "/measurements"}
	if c.spec.IsSearch() {
		paths = append(paths, "/generations", "/generations?canonical=1", "/report")
	}
	out := make(map[string]string)
	for _, p := range paths {
		url := base + "/campaigns/" + c.id + p
		code, _, body := httpGet(t, url)
		out[p] = fmt.Sprintf("%d\n%s", code, body)
		if code == http.StatusOK && p != "" && p != "/report" {
			out[p+" paged"] = string(paged(t, url, 2))
		}
	}
	return out
}

// assertReleased checks that a terminal campaign holds only what its
// read endpoints serve.
func assertReleased(t *testing.T, c *campaign) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runner != nil || c.obs != nil || c.done != nil || c.attempts != nil || c.failures != nil || c.sink != nil {
		t.Errorf("%s campaign keeps its working state: runner %v, obs %d, done %d, attempts %d",
			c.state, c.runner != nil, len(c.obs), len(c.done), len(c.attempts))
	}
	if c.ds != nil && (c.ds.Trace != nil || c.ds.Config.Program != nil) {
		t.Error("served dataset pins the trace or the program")
	}
	if r := c.search; r != nil {
		if r.eng != nil || r.sink != nil || r.cur != nil {
			t.Error("search campaign keeps its engine, sink or in-flight generation")
		}
		if r.result != nil && r.result.Config.Campaign.Program != nil {
			t.Error("search result pins the program")
		}
	}
}

// lateDuplicate replays a task of a finished campaign the way a
// duplicate execution would land after the terminal transition: a local
// run, then a failed attempt. Both must settle their lease and change
// nothing.
func lateDuplicate(t *testing.T, s *Server, c *campaign, tk task) {
	t.Helper()
	for _, run := range []func(*jobqueue.Lease[task]){
		func(l *jobqueue.Lease[task]) { s.runTask(0, l) },
		func(l *jobqueue.Lease[task]) { s.taskFailed(l, c, tk, errors.New("late duplicate failed")) },
	} {
		if err := s.queue.PushBatchTenant(c.spec.Tenant, 0, []task{tk}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		lease, err := s.queue.Pop(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		run(lease)
		if d, l := s.queue.Depth(), s.queue.Leased(); d != 0 || l != 0 {
			t.Errorf("late duplicate left depth %d, leased %d", d, l)
		}
	}
	if tk.genome != nil {
		c.failSearchIndividual(tk, 1)
		c.completeSearch(tk, core.Observation{})
	} else {
		c.failLayout(tk.layout, 1, errors.New("late"))
		c.complete(tk.layout, core.Observation{})
	}
}

// TestReleaseTable: every terminal state releases the working state,
// and afterwards the status JSON and every read endpoint — whole and
// paged — serve exactly the bytes of the in-process reference. A late
// local duplicate then changes none of them.
func TestReleaseTable(t *testing.T) {
	prog, err := benchmarkProgram("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	scale := experiments.Small
	layoutRef := func(spec JobSpec) *core.Dataset {
		ds, err := core.RunCampaign(campaignConfig(spec, scale, prog))
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	searchRef := func(spec JobSpec) *core.SearchResult {
		res, err := core.RunSearch(searchConfig(spec, scale, prog))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	type row struct {
		name  string
		cfg   Config
		spec  JobSpec
		drain bool // interrupt by draining a coordinator that never runs a task
		// want builds the expected status and endpoint bodies.
		want func(id string) (Status, map[string]string)
	}
	csvBodies := func(ds *core.Dataset) map[string]string {
		var res, meas bytes.Buffer
		if err := results.WriteDatasetCSV(&res, ds); err != nil {
			t.Fatal(err)
		}
		if err := results.WriteMeasurementsCSV(&meas, ds); err != nil {
			t.Fatal(err)
		}
		return map[string]string{
			"/result": "200\n" + res.String(), "/result paged": res.String(),
			"/measurements": "200\n" + meas.String(), "/measurements paged": meas.String(),
		}
	}
	rows := []row{
		{
			name: "layout done", cfg: Config{Workers: 2}, spec: releaseLayoutSpec(5),
			want: func(id string) (Status, map[string]string) {
				return Status{ID: id, Benchmark: "429.mcf", State: StateDone, Layouts: 5, Completed: 5},
					csvBodies(layoutRef(releaseLayoutSpec(5)))
			},
		},
		{
			name: "layout failed by budget",
			cfg:  Config{Workers: 1, MaxAttempts: 1, Faults: failEveryBuild()},
			spec: releaseLayoutSpec(4),
			want: func(id string) (Status, map[string]string) {
				return Status{ID: id, Benchmark: "429.mcf", State: StateFailed, Layouts: 4, Failed: 1}, nil
			},
		},
		{
			name: "interrupted by drain", spec: releaseLayoutSpec(4), drain: true,
			want: func(id string) (Status, map[string]string) {
				return Status{ID: id, Benchmark: "429.mcf", State: StateInterrupted, Layouts: 4,
					Error: "campaignd: drained with 4 layouts unmeasured; resubmit to resume"}, nil
			},
		},
		{
			name: "search done", cfg: Config{Workers: 2}, spec: releaseSearchSpec(4, 2),
			want: func(id string) (Status, map[string]string) {
				res := searchRef(releaseSearchSpec(4, 2))
				var prov, canon, report bytes.Buffer
				if err := results.WriteGenerationsCSV(&prov, res); err != nil {
					t.Fatal(err)
				}
				if err := results.WriteGenerationMeasurementsCSV(&canon, res); err != nil {
					t.Fatal(err)
				}
				if err := results.WriteJSON(&report, results.SummarizeSearch(res)); err != nil {
					t.Fatal(err)
				}
				return Status{ID: id, Benchmark: "429.mcf", State: StateDone, Layouts: 4, Completed: 8,
						Kind: KindSearch, Generation: 2, Generations: 2,
						BestCPI: res.Best.Obs.CPI(), TrajectoryHash: res.TrajectoryHash},
					map[string]string{
						"/generations": "200\n" + prov.String(), "/generations paged": prov.String(),
						"/generations?canonical=1": "200\n" + canon.String(), "/generations?canonical=1 paged": canon.String(),
						"/report": "200\n" + report.String(),
					}
			},
		},
		{
			name: "search aborted",
			cfg:  Config{Workers: 1, MaxAttempts: 1, Faults: failEveryBuild()},
			spec: releaseSearchSpec(3, 2),
			want: func(id string) (Status, map[string]string) {
				return Status{ID: id, Benchmark: "429.mcf", State: StateFailed, Layouts: 3, Completed: 3, Failed: 3,
						Kind: KindSearch, Generations: 2, Error: "core: search generation 0: no valid individual"},
					map[string]string{
						"/generations": "200\n", "/generations paged": "",
						"/generations?canonical=1": "200\n", "/generations?canonical=1 paged": "",
					}
			},
		},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			// The test runs the task pool itself, so it can stop the pool
			// and replay late duplicates once the campaign finished.
			r.cfg.NoLocalWorkers = true
			s, base := serve(t, r.cfg)
			stop := pool(s, r.cfg.Workers)
			st, err := s.Submit(r.spec)
			if err != nil {
				t.Fatal(err)
			}
			if r.drain {
				s.Drain()
			}
			c := finished(t, s, st.ID)
			stop()
			assertReleased(t, c)

			wantSt, bodies := r.want(st.ID)
			if wantSt.Error == "" && wantSt.State == StateFailed {
				// The failing layout's injected error text is the
				// fault injector's; only its framing is the service's.
				got := c.snapshot().Error
				if !strings.HasPrefix(got, "campaignd: layout 0 failed after 1 attempts (budget 0): build: ") {
					t.Fatalf("failure error %q", got)
				}
				wantSt.Error = got
			}
			stBody := string(statusBody(t, wantSt))
			want := map[string]string{"": "200\n" + stBody}
			if r.spec.IsSearch() || wantSt.State != StateDone {
				want["/result"] = "409\n" + stBody
				want["/measurements"] = "409\n" + stBody
			}
			if r.spec.IsSearch() && wantSt.State != StateDone {
				want["/report"] = "409\n" + stBody
			}
			for k, v := range bodies {
				want[k] = v
			}
			got := served(t, base, c)
			if !reflect.DeepEqual(got, want) {
				for k := range want {
					if got[k] != want[k] {
						t.Errorf("%s%s:\n--- got ---\n%s\n--- want ---\n%s", c.id, k, got[k], want[k])
					}
				}
				for k := range got {
					if _, ok := want[k]; !ok {
						t.Errorf("unexpected endpoint read %q", k)
					}
				}
			}
			if r.drain {
				return // the drained queue admits nothing more
			}
			tk := task{camp: c, layout: 0}
			if r.spec.IsSearch() {
				g := toolchainGenome(t, s, r.spec)
				tk = task{camp: c, layout: 0, gen: 0, genome: &g}
			}
			lateDuplicate(t, s, c, tk)
			if after := served(t, base, c); !reflect.DeepEqual(after, got) {
				t.Error("a late duplicate changed what the finished campaign serves")
			}
			assertReleased(t, c)
		})
	}
}

// toolchainGenome derives generation zero's first genome of a search
// spec on a fresh engine, independent of the finished campaign.
func toolchainGenome(t *testing.T, s *Server, spec JobSpec) toolchain.Genome {
	t.Helper()
	ccfg, trace, err := s.workloads.campaign(spec, s.cfg.scale())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewSearchOn(searchConfig(spec, s.cfg.scale(), ccfg.Program), trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	genomes, err := eng.Genomes(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return genomes[0]
}

// TestLateDuplicateRacesFinish races duplicate executions that fail
// against the terminal transition: each duplicate fails right after its
// original completed, so the last one lands while the campaign
// finalizes (and, for a search, while the driver finishes). Under the
// race detector this pins that every runner read happens under the
// campaign lock and that a terminal campaign charges nothing. The
// results stay the in-process reference's bytes.
func TestLateDuplicateRacesFinish(t *testing.T) {
	prog, err := benchmarkProgram("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []JobSpec{releaseLayoutSpec(3), releaseSearchSpec(3, 1)} {
		name := spec.Kind
		if name == "" {
			name = KindCampaign
		}
		t.Run(name, func(t *testing.T) {
			s, base := serve(t, Config{NoLocalWorkers: true, MaxAttempts: 1})
			st, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var originals, dups []*jobqueue.Lease[task]
			for i := 0; i < 3; i++ {
				l, err := s.queue.Pop(ctx)
				if err != nil {
					t.Fatal(err)
				}
				originals = append(originals, l)
			}
			for _, l := range originals {
				if err := s.queue.PushBatchTenant("", 0, []task{l.Payload()}); err != nil {
					t.Fatal(err)
				}
			}
			for range originals {
				l, err := s.queue.Pop(ctx)
				if err != nil {
					t.Fatal(err)
				}
				dups = append(dups, l)
			}
			var wg sync.WaitGroup
			for i, l := range originals {
				s.runTask(0, l)
				wg.Add(1)
				go func(d *jobqueue.Lease[task]) {
					defer wg.Done()
					s.taskFailed(d, d.Payload().camp, d.Payload(), errors.New("duplicate failed"))
				}(dups[i])
			}
			wg.Wait()
			c := finished(t, s, st.ID)
			if got := c.snapshot(); got.State != StateDone || got.Failed != 0 {
				t.Fatalf("campaign ended %s with %d failed: %s", got.State, got.Failed, got.Error)
			}
			assertReleased(t, c)
			var want bytes.Buffer
			path := "/campaigns/" + st.ID + "/measurements"
			if spec.IsSearch() {
				res, err := core.RunSearch(searchConfig(spec, experiments.Small, prog))
				if err != nil {
					t.Fatal(err)
				}
				err = results.WriteGenerationMeasurementsCSV(&want, res)
				if err != nil {
					t.Fatal(err)
				}
				path = "/campaigns/" + st.ID + "/generations?canonical=1"
			} else {
				ds, err := core.RunCampaign(campaignConfig(spec, experiments.Small, prog))
				if err != nil {
					t.Fatal(err)
				}
				if err := results.WriteMeasurementsCSV(&want, ds); err != nil {
					t.Fatal(err)
				}
			}
			if code, _, got := httpGet(t, base+path); code != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
				t.Errorf("status %d; measurements differ from the in-process run:\n%s\n--- want ---\n%s", code, got, want.Bytes())
			}
			if d, l := s.queue.Depth(), s.queue.Leased(); d != 0 || l != 0 {
				t.Errorf("duplicates left depth %d, leased %d", d, l)
			}
		})
	}
}

// TestLateRemoteComplete: a remote worker that reports on a duplicate
// lease after its campaign finished gets a 200 ack, whether it reports
// an observation or an error; the lease settles, no attempt is charged
// and the served bytes do not move.
func TestLateRemoteComplete(t *testing.T) {
	s, base := serve(t, Config{NoLocalWorkers: true})
	spec := releaseLayoutSpec(2)
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := s.lookup(st.ID)
	runner := c.liveRunner()
	// Duplicates of both layouts queue behind the originals.
	if err := s.queue.PushBatchTenant("", 0, []task{{camp: c, layout: 0}, {camp: c, layout: 1}}); err != nil {
		t.Fatal(err)
	}
	post := func(path string, body any, out any) int {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.Post(base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if out != nil && res.StatusCode == http.StatusOK {
			if err := json.NewDecoder(res.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return res.StatusCode
	}
	var leases []leaseResponse
	for i := 0; i < 4; i++ {
		var lr leaseResponse
		if code := post("/worker/lease", leaseRequest{Worker: "w", WaitMS: 2000}, &lr); code != http.StatusOK {
			t.Fatalf("lease %d: status %d", i, code)
		}
		leases = append(leases, lr)
	}
	wire := func(layout int) *core.ObsWire {
		var w core.ObsWire
		runner.Run(0, []core.Unit{core.LayoutUnit(layout)}, 1, func(_ int, o core.Observation, err error) {
			if err != nil {
				t.Fatal(err)
			}
			w = reportWire(o, runner)
		})
		return &w
	}
	for _, lr := range leases[:2] {
		if code := post("/worker/complete", completeRequest{LeaseID: lr.LeaseID, Observation: wire(lr.Layout)}, nil); code != http.StatusOK {
			t.Fatalf("original completion: status %d", code)
		}
	}
	c = finished(t, s, st.ID)
	assertReleased(t, c)
	before := served(t, base, c)

	if code := post("/worker/complete", completeRequest{LeaseID: leases[2].LeaseID, Observation: wire(leases[2].Layout)}, nil); code != http.StatusOK {
		t.Errorf("late observation: status %d, want 200", code)
	}
	if code := post("/worker/complete", completeRequest{LeaseID: leases[3].LeaseID, Error: "late failure"}, nil); code != http.StatusOK {
		t.Errorf("late error: status %d, want 200", code)
	}
	if d, l, r := s.queue.Depth(), s.queue.Leased(), s.remote.Len(); d != 0 || l != 0 || r != 0 {
		t.Errorf("late completions left depth %d, leased %d, remote leases %d", d, l, r)
	}
	if after := served(t, base, c); !reflect.DeepEqual(after, before) {
		t.Error("late remote completions changed what the finished campaign serves")
	}
	// Attempts column: every layout took exactly one execution.
	_, _, res := httpGet(t, base+"/campaigns/"+st.ID+"/result")
	rows, err := results.ReadDatasetCSV(bytes.NewReader(res))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Attempts != 1 {
			t.Errorf("layout %#x shows %d attempts, want 1", r.LayoutSeed, r.Attempts)
		}
	}
}

// TestRetentionBound: a long-running service retains at most 64 KiB of
// heap per finished campaign. Each rotation admits two layout
// campaigns and one search, as the service benchmark does.
func TestRetentionBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap accounting")
	}
	s, _ := serve(t, Config{Workers: 2})
	seed := uint64(1)
	run := func(n int) {
		for i := 0; i < n; i++ {
			spec := releaseLayoutSpec(16)
			if i%3 == 2 {
				spec = releaseSearchSpec(5, 3)
			}
			spec.BaseSeed = seed
			seed++
			st, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if c := finished(t, s, st.ID); c.snapshot().State != StateDone {
				t.Fatalf("campaign %s ended %s", st.ID, c.snapshot().State)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run(3) // warm the workload cache and the batch-engine pools
	before := heap()
	const campaigns = 60
	run(campaigns)
	after := heap()
	per := (int64(after) - int64(before)) / campaigns
	t.Logf("retained %d B per finished campaign", per)
	if per > 64<<10 {
		t.Errorf("retained %d KiB per finished campaign, want at most 64 KiB", per>>10)
	}
}

// TestSharedWorkload: admissions of one benchmark and budget run on one
// program and one trace; another budget shares the program only. An
// evicted trace re-derives identically, and a worker's runner cache
// shares its workloads the same way.
func TestSharedWorkload(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewMetrics()}
	// The short lease bounds the drain's grace for the search admitted
	// below, which no worker ever runs.
	s, _ := serve(t, Config{NoLocalWorkers: true, Lease: 50 * time.Millisecond, Obs: o})
	held := func(spec JobSpec) *core.Dataset {
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := s.lookup(st.ID)
		return heldBy(t, c.liveRunner())
	}
	a := releaseLayoutSpec(2)
	b := releaseSearchSpec(3, 1)
	other := releaseLayoutSpec(2)
	other.Budget = 50_000
	dsA, dsB, dsO := held(a), held(b), held(other)
	if dsA.Trace != dsB.Trace || dsA.Config.Program != dsB.Config.Program {
		t.Error("two admissions of one benchmark and budget hold different traces or programs")
	}
	if dsO.Trace == dsA.Trace {
		t.Error("another budget shares the trace")
	}
	if dsO.Config.Program != dsA.Config.Program {
		t.Error("another budget of the same benchmark does not share the program")
	}
	hits := o.Counter("campaignd_workload_cache_hits_total", "").Value()
	misses := o.Counter("campaignd_workload_cache_misses_total", "").Value()
	if hits != 1 || misses != 2 {
		t.Errorf("workload cache hits %d, misses %d; want 1 and 2", hits, misses)
	}

	// Eviction: fill the cache past its bound, then re-derive the first.
	wl := newWorkloads(nil)
	_, first, err := wl.campaign(a, experiments.Small)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= maxSharedTraces; i++ {
		spec := a
		spec.Budget = a.Budget + uint64(i)*1000
		if _, _, err := wl.campaign(spec, experiments.Small); err != nil {
			t.Fatal(err)
		}
	}
	if len(wl.traces) != maxSharedTraces {
		t.Errorf("cache holds %d traces, bound %d", len(wl.traces), maxSharedTraces)
	}
	_, again, err := wl.campaign(a, experiments.Small)
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Error("the oldest trace was not evicted")
	}
	if !reflect.DeepEqual(again, first) {
		t.Error("an evicted trace re-derived differently")
	}

	// The worker's runner cache: two campaigns of one workload, one trace.
	rc := &workerRunners{w: &Worker{}, wl: newWorkloads(nil)}
	r1, err := rc.get("one", a, experiments.Small)
	if err != nil {
		t.Fatal(err)
	}
	a2 := a
	a2.BaseSeed = 99
	r2, err := rc.get("two", a2, experiments.Small)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("two campaigns share one runner")
	}
	if w1, w2 := heldBy(t, r1), heldBy(t, r2); w1.Trace != w2.Trace || w1.Config.Program != w2.Config.Program {
		t.Error("the worker's runners hold different traces or programs for one workload")
	}
}

// TestSharedWorkloadConcurrent admits campaigns of one workload from
// several goroutines at once and runs them on a two-slot pool, so the
// race detector sees concurrent cache lookups and concurrent replays of
// the one shared trace. Every campaign measures the bytes of its
// in-process reference.
func TestSharedWorkloadConcurrent(t *testing.T) {
	prog, err := benchmarkProgram("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	s, base := serve(t, Config{Workers: 2})
	const n = 4
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := releaseLayoutSpec(3)
			spec.BaseSeed = uint64(100 + i)
			st, err := s.Submit(spec)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, id := range ids {
		c := finished(t, s, id)
		spec := releaseLayoutSpec(3)
		spec.BaseSeed = uint64(100 + i)
		ds, err := core.RunCampaign(campaignConfig(spec, experiments.Small, prog))
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := results.WriteMeasurementsCSV(&want, ds); err != nil {
			t.Fatal(err)
		}
		if code, _, got := httpGet(t, base+"/campaigns/"+c.id+"/measurements"); code != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("campaign %d: status %d, measurements differ from the in-process run", i, code)
		}
	}
	if len(s.workloads.traces) != 1 {
		t.Errorf("one workload left %d traces", len(s.workloads.traces))
	}
}

// heldBy exposes the trace and program a runner measures on, through
// the dataset it assembles.
func heldBy(t *testing.T, r *core.LayoutRunner) *core.Dataset {
	t.Helper()
	if r == nil {
		t.Fatal("campaign has no runner")
	}
	ds, err := r.Dataset(make([]core.Observation, r.Layouts()), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}
