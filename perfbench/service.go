package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"interferometry/internal/campaignd"
	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/heap"
	"interferometry/internal/progen"
	"interferometry/internal/results"
)

const (
	serviceBench = "429.mcf"
	// serviceClients is the closed loop's size: each client waits for
	// its result before sending the next request, as interferometry
	// -server and layoutopt -server do.
	serviceClients = 2
	// pollEvery is the status poll interval. The CLIs poll every 200 ms;
	// the benchmark polls finer so latency resolves service time rather
	// than the poll period.
	pollEvery = 5 * time.Millisecond
	// maxSheds is how many 429s one submission absorbs before the
	// client gives up and the operation counts as failed.
	maxSheds = 5
	// rereadPage pages the re-read's /measurements in small pages.
	rereadPage = 4
	// stallLimit bounds how long a phase may overrun before its pending
	// requests fail, so a stalled server ends the run instead of hanging.
	stallLimit = time.Minute
)

// serviceMixed is an in-process campaignd configured as deployed with
// -wal-dir (WAL and checkpoints on, two task workers, HTTP on loopback),
// driven by a closed loop of two clients. Each client rotates through
// two new layout campaigns, one new search campaign and one re-read of
// a finished campaign.
type serviceMixed struct {
	srv     *campaignd.Server
	httpSrv *http.Server
	served  chan struct{} // closed when the HTTP server's goroutine exits
	clients []*campaignd.Client
	passes  int // prepare calls so far, so each gets fresh state dirs

	mu      sync.Mutex
	st      *serviceStats // the untraced phase
	traced  *serviceStats // the traced phase
	layouts []finished    // layout campaigns with their measurements
	search  []finished    // search campaigns with their trajectory hash
	sheds   int
	// next numbers each client's specs across phases, so every phase
	// submits campaigns the server has not seen.
	next [serviceClients]int
}

// finished is one completed new campaign.
type finished struct {
	spec campaignd.JobSpec
	data []byte // /measurements bytes, or the /report trajectory hash
}

// serviceStats is what one phase measured.
type serviceStats struct {
	wall, cpu        float64
	rotations        []float64
	latencies        []float64 // new campaigns, submit → results received
	searchLatencies  []float64
	layoutLatencies  []float64
	rereads          []float64
	queueToDone      []float64
	polls, campaigns int
	layouts          int
}

func (w *serviceMixed) prepare(r *run) error {
	dir := filepath.Join(r.dir, fmt.Sprintf("service-%d", w.passes))
	w.passes++
	srv, err := campaignd.New(campaignd.Config{
		Scale:          experiments.Small,
		Workers:        2,
		WALDir:         dir,
		CheckpointRoot: filepath.Join(dir, "checkpoints"),
	})
	if err != nil {
		return err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return err
	}
	w.srv = srv
	w.httpSrv = campaignd.NewHTTPServer(srv.Handler())
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		if err := w.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: campaignd http:", err)
		}
	}()
	w.clients = nil
	for i := 0; i < serviceClients; i++ {
		w.clients = append(w.clients, &campaignd.Client{
			Base: "http://" + ln.Addr().String(),
			HTTP: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		})
	}
	// Warm-up: one layout and one search campaign through HTTP.
	st := &serviceStats{}
	ctx, cancel := context.WithTimeout(context.Background(), stallLimit)
	defer cancel()
	for i, spec := range []campaignd.JobSpec{w.layoutSpec(r, 0, 1<<20), w.searchSpec(r, 0, 1<<20)} {
		if _, err := w.newCampaign(ctx, r, w.clients[i%serviceClients], spec, nil, 0, st); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *serviceMixed) teardown() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.httpSrv.Shutdown(ctx) // Close below forces whatever is left
	w.httpSrv.Close()
	<-w.served
	w.srv.Drain()
	<-w.srv.Done()
	for _, c := range w.clients {
		c.HTTP.CloseIdleConnections()
	}
	w.srv = nil
}

func (w *serviceMixed) layoutSpec(r *run, client, n int) campaignd.JobSpec {
	return campaignd.JobSpec{Benchmark: serviceBench, Layouts: r.size.serviceLayouts, Budget: r.size.serviceBudget,
		BaseSeed: r.derive(7, uint64(client)<<32|uint64(n))}
}

func (w *serviceMixed) searchSpec(r *run, client, n int) campaignd.JobSpec {
	return campaignd.JobSpec{Benchmark: serviceBench, Budget: r.size.serviceBudget, Kind: campaignd.KindSearch,
		Search:   &campaignd.SearchSpec{Population: r.size.searchPop, Generations: r.size.searchGens},
		BaseSeed: r.derive(8, uint64(client)<<32|uint64(n))}
}

// submit posts spec, absorbing up to maxSheds 429s.
func (w *serviceMixed) submit(ctx context.Context, c *campaignd.Client, spec campaignd.JobSpec, tr *tracer, root int) (campaignd.Status, error) {
	for shed := 0; ; shed++ {
		var st campaignd.Status
		err := tr.do("campaignd.Client.Submit", root, func() error {
			var err error
			st, err = c.Submit(ctx, spec)
			return err
		})
		var re *campaignd.RetryError
		if !errors.As(err, &re) {
			return st, err
		}
		w.mu.Lock()
		w.sheds++
		w.mu.Unlock()
		if shed == maxSheds {
			return st, fmt.Errorf("gave up after %d sheds: %w", shed+1, err)
		}
		time.Sleep(re.After)
	}
}

// wait polls the campaign until it leaves the running state.
func (w *serviceMixed) wait(ctx context.Context, c *campaignd.Client, st campaignd.Status, tr *tracer, root int, s *serviceStats) (campaignd.Status, error) {
	for st.State == campaignd.StateRunning {
		time.Sleep(pollEvery)
		err := tr.do("campaignd.Client.Status", root, func() error {
			var err error
			st, err = c.Status(ctx, st.ID)
			return err
		})
		s.polls++
		if err != nil {
			return st, err
		}
	}
	if st.State != campaignd.StateDone {
		return st, fmt.Errorf("campaign %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st, nil
}

// newCampaign submits a new campaign and waits until its results are
// fully received; it returns the measurement bytes (layout campaigns)
// or the trajectory hash (search campaigns).
func (w *serviceMixed) newCampaign(ctx context.Context, r *run, c *campaignd.Client, spec campaignd.JobSpec, tr *tracer, root int, s *serviceStats) ([]byte, error) {
	t0 := time.Now()
	st, err := w.submit(ctx, c, spec, tr, root)
	if err != nil {
		return nil, err
	}
	accepted := time.Now()
	if st, err = w.wait(ctx, c, st, tr, root, s); err != nil {
		return nil, err
	}
	s.queueToDone = append(s.queueToDone, time.Since(accepted).Seconds())
	var data []byte
	if spec.IsSearch() {
		var rep []byte
		err = tr.do("campaignd.Client.SearchReport", root, func() error {
			var err error
			rep, err = c.SearchReport(ctx, st.ID)
			return err
		})
		if err == nil {
			var sum results.SearchSummary
			if err = json.Unmarshal(rep, &sum); err == nil {
				data = []byte(sum.TrajectoryHash)
			}
		}
	} else {
		var buf bytes.Buffer
		err = tr.do("campaignd.Client.StreamMeasurements", root, func() error {
			return c.StreamMeasurements(ctx, st.ID, 0, &buf)
		})
		data = buf.Bytes()
	}
	if err != nil {
		return nil, err
	}
	lat := time.Since(t0).Seconds()
	s.latencies = append(s.latencies, lat)
	s.campaigns++
	if spec.IsSearch() {
		s.searchLatencies = append(s.searchLatencies, lat)
		s.layouts += r.size.searchPop * r.size.searchGens
	} else {
		s.layoutLatencies = append(s.layoutLatencies, lat)
		s.layouts += r.size.serviceLayouts
	}
	return data, nil
}

// reread resubmits a finished spec (the same content-hashed id, served
// from memory) and pages its /measurements.
func (w *serviceMixed) reread(ctx context.Context, c *campaignd.Client, f finished, tr *tracer, root int, s *serviceStats) ([]byte, error) {
	t0 := time.Now()
	st, err := w.submit(ctx, c, f.spec, tr, root)
	if err != nil {
		return nil, err
	}
	if st, err = w.wait(ctx, c, st, tr, root, s); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = tr.do("campaignd.Client.StreamMeasurements", root, func() error {
		return c.StreamMeasurements(ctx, st.ID, rereadPage, &buf)
	})
	s.rereads = append(s.rereads, time.Since(t0).Seconds())
	return buf.Bytes(), err
}

// client is one closed-loop caller; it returns its own stats.
func (w *serviceMixed) client(ctx context.Context, r *run, id int, deadline time.Time, done *atomic.Int64, tr *tracer, root int) *serviceStats {
	s := &serviceStats{}
	c := w.clients[id]
	n := &w.next[id]
	record := func(err error) {
		w.mu.Lock()
		defer w.mu.Unlock()
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintln(os.Stderr, "perfbench: service:", err)
		}
	}
	for time.Now().Before(deadline) || done.Load() < int64(r.size.serviceMinUnits) {
		t0 := time.Now()
		var mine []finished
		for _, spec := range []campaignd.JobSpec{w.layoutSpec(r, id, *n), w.layoutSpec(r, id, *n+1), w.searchSpec(r, id, *n)} {
			data, err := w.newCampaign(ctx, r, c, spec, tr, root, s)
			record(err)
			done.Add(1)
			if err == nil {
				mine = append(mine, finished{spec, data})
			}
		}
		*n += 2
		w.mu.Lock()
		for _, f := range mine {
			if f.spec.IsSearch() {
				w.search = append(w.search, f)
			} else {
				w.layouts = append(w.layouts, f)
			}
		}
		w.mu.Unlock()
		if len(mine) > 0 && !mine[0].spec.IsSearch() {
			data, err := w.reread(ctx, c, mine[0], tr, root, s)
			if err == nil && !bytes.Equal(data, mine[0].data) {
				err = fmt.Errorf("re-read of %s returned %d bytes that differ from the first read", mine[0].spec.ID(experiments.Small), len(data))
			}
			record(err)
		}
		s.rotations = append(s.rotations, time.Since(t0).Seconds())
	}
	return s
}

// run drives the closed loop for d and merges the clients' stats.
func (w *serviceMixed) run(r *run, d time.Duration, tr *tracer) *serviceStats {
	ctx, cancel := context.WithTimeout(context.Background(), d+stallLimit)
	defer cancel()
	root := tr.root("service", serviceClients)
	deadline := time.Now().Add(d)
	var done atomic.Int64 // new campaigns completed by all clients
	per := make([]*serviceStats, serviceClients)
	c0, t0 := cpuSeconds(), time.Now()
	var wg sync.WaitGroup
	for i := range per {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			per[i] = w.client(ctx, r, i, deadline, &done, tr, root)
		}(i)
	}
	wg.Wait()
	tr.end(root)
	all := &serviceStats{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}
	for _, s := range per {
		all.rotations = append(all.rotations, s.rotations...)
		all.latencies = append(all.latencies, s.latencies...)
		all.searchLatencies = append(all.searchLatencies, s.searchLatencies...)
		all.layoutLatencies = append(all.layoutLatencies, s.layoutLatencies...)
		all.rereads = append(all.rereads, s.rereads...)
		all.queueToDone = append(all.queueToDone, s.queueToDone...)
		all.polls += s.polls
		all.campaigns += s.campaigns
		all.layouts += s.layouts
	}
	return all
}

func (w *serviceMixed) phase(r *run, d time.Duration, tr *tracer) ([]float64, error) {
	s := w.run(r, d, tr)
	if tr == nil {
		w.st = s
	} else {
		w.traced = s
	}
	return s.rotations, nil
}

func (w *serviceMixed) check(r *run) {
	w.mu.Lock()
	layouts, search := w.layouts, w.search
	w.mu.Unlock()
	if len(layouts) == 0 || len(search) == 0 {
		r.fail("service completed %d layout and %d search campaigns", len(layouts), len(search))
		return
	}
	for s := 0; s < r.size.checkSamples; s++ {
		f := layouts[r.derive(9, uint64(s))%uint64(len(layouts))]
		got := f.data
		if r.corrupt && s == 0 {
			got = append([]byte(nil), got...)
			got[len(got)/2] ^= 0x20
		}
		ds, err := core.RunCampaign(serviceConfig(f.spec))
		if err != nil {
			r.fail("in-process reference of %s: %v", f.spec.ID(experiments.Small), err)
			continue
		}
		var want bytes.Buffer
		if err := results.WriteMeasurementsCSV(&want, ds); err != nil {
			r.fail("reference CSV: %v", err)
			continue
		}
		if !bytes.Equal(got, want.Bytes()) {
			r.fail("/measurements of %s differ from the in-process campaign", f.spec.ID(experiments.Small))
			continue
		}
		r.pass()
	}
	for s := 0; s < max(1, r.size.checkSamples/3); s++ {
		f := search[r.derive(10, uint64(s))%uint64(len(search))]
		cfg := core.SearchConfig{Campaign: serviceConfig(f.spec), Population: f.spec.Search.Population,
			Generations: f.spec.Search.Generations}
		res, err := core.RunSearch(cfg.Resolved())
		if err != nil {
			r.fail("in-process search %s: %v", f.spec.ID(experiments.Small), err)
			continue
		}
		if res.TrajectoryHash != string(f.data) {
			r.fail("search %s trajectory %s, in-process %s", f.spec.ID(experiments.Small), f.data, res.TrajectoryHash)
			continue
		}
		r.pass()
	}
}

// serviceConfig is the in-process campaign a spec means on the server's
// scale: the same translation campaignd makes at admission.
func serviceConfig(spec campaignd.JobSpec) core.CampaignConfig {
	ps, _ := progen.ByName(spec.Benchmark)
	layouts := spec.Layouts
	if layouts == 0 {
		layouts = experiments.Small.Layouts
	}
	return core.CampaignConfig{
		Program:   progen.MustGenerate(ps),
		InputSeed: 1,
		Budget:    spec.Budget,
		Layouts:   layouts,
		Fidelity:  experiments.Small.Fidelity,
		BaseSeed:  spec.BaseSeed,
	}
}

func (w *serviceMixed) endToEnd(r *run) {
	s := w.st
	r.set("wall_s", median(s.rotations), "s")
	r.set("cpu_s", s.cpu/float64(max(len(s.rotations), 1)), "s")
	r.set("layouts_per_s", float64(s.layouts)/s.wall, "layouts/s")
	r.set("campaigns_per_s", float64(s.campaigns)/s.wall, "campaigns/s")
	r.set("latency_p50_s", median(s.latencies), "s")
	r.set("latency_p90_s", quantile(s.latencies, 0.9), "s")
}

// campaigndLayers reports the campaignd metrics of the traced phase,
// and compute_fraction: the same layout spec run in-process ÷ its
// median service latency.
func (w *serviceMixed) campaigndLayers(r *run, tr *tracer) error {
	s := w.traced
	r.set("campaignd.submit_s", median(tr.durations("campaignd.Client.Submit")), "s")
	r.set("campaignd.status_s", median(tr.durations("campaignd.Client.Status")), "s")
	r.set("campaignd.stream_s", median(tr.durations("campaignd.Client.StreamMeasurements")), "s")
	r.set("campaignd.queue_to_done_s", median(s.queueToDone), "s")
	r.set("campaignd.reread_s", median(s.rereads), "s")
	r.set("campaignd.search_latency_p50_s", median(s.searchLatencies), "s")
	r.set("campaignd.polls_per_campaign", float64(s.polls)/float64(max(s.campaigns, 1)), "count")
	w.mu.Lock()
	r.set("campaignd.shed_total", float64(w.sheds), "count")
	w.mu.Unlock()

	spec := w.layoutSpec(r, 0, 1<<20)
	p := &prober{r: r, tr: tr, root: tr.root("compute", 1)}
	ts, err := p.calls("core.RunCampaign", r.size.probeReps, func(int) error {
		_, err := core.RunCampaign(serviceConfig(spec))
		return err
	})
	tr.end(p.root)
	if err != nil {
		return err
	}
	r.set("campaignd.compute_fraction", median(ts)/median(s.layoutLatencies), "ratio")
	return nil
}

func (w *serviceMixed) layers(r *run, tr *tracer) error {
	if err := w.campaigndLayers(r, tr); err != nil {
		return err
	}
	ps, _ := progen.ByName(serviceBench)
	in := layerInputs{
		specs:   []progen.Spec{ps},
		bench:   ps,
		budget:  r.size.serviceBudget,
		layouts: r.size.serviceLayouts,
		width:   r.size.serviceLayouts / 2,
		mode:    heap.ModeBump,
	}
	if err := probeLayers(r, tr, in); err != nil {
		return err
	}
	return tracedReport(r, tr)
}

// serviceLayers measures the campaignd metrics for a workload whose own
// phase does not run the service: a fresh server, one traced phase of d.
func serviceLayers(r *run, tr *tracer, d time.Duration) error {
	w := &serviceMixed{}
	if err := w.prepare(r); err != nil {
		return err
	}
	defer w.teardown()
	if _, err := w.phase(r, d, tr); err != nil {
		return err
	}
	w.check(r)
	return w.campaigndLayers(r, tr)
}
