package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"sync"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/faultinject"
	"interferometry/internal/jobqueue/backoff"
	"interferometry/internal/obs"
)

// Worker is one remote execution process: it pulls leased layout tasks
// from a coordinator's /worker/* endpoints, executes them through its
// own core.LayoutRunner, and streams the observations back. Workers are
// stateless between tasks — every per-layout input re-derives from the
// spec the lease carries — so any number of them can join, leave or die
// mid-campaign without changing a byte of the finished dataset: the
// coordinator's lease reaping requeues whatever a dead worker held, and
// the re-execution derives identical results.
type Worker struct {
	// Coordinator is the coordinator's base URL, e.g.
	// "http://localhost:8347".
	Coordinator string
	// ID identifies this worker to the coordinator's health scoring:
	// rejected results count against it and a condemned ID's lease
	// requests are refused (403). Empty means "<hostname>-<pid>".
	ID string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Parallel is the number of concurrent task loops (and the worker's
	// runner slot count). Zero or negative means 1.
	Parallel int
	// Batch is the maximum tasks a loop leases per pull (capped at 64,
	// the batched replay's lane limit). After one task arrives, up to
	// Batch-1 more are leased without waiting; leases from the same
	// campaign then run as one chunk of core.LayoutRunner.Run, sharing
	// one batched trace walk, which changes throughput but not a byte of
	// any result. Zero or one leases singly.
	Batch int
	// Wait bounds each lease long poll. Zero means the coordinator's
	// default.
	Wait time.Duration
	// Backoff spaces retries of coordinator requests (lease polls after
	// transport errors, completion reports). The jitter is seeded by
	// the worker's ID, so a fleet that loses its coordinator does not
	// thunder back in lockstep. The zero policy means {50ms, 2s, 0.5}.
	Backoff backoff.Policy
	// Faults optionally injects faults into the worker's seams — the
	// sharded chaos soak's hook. Nil runs clean.
	Faults *faultinject.Injector
	// Tamper, when set, corrupts every outgoing observation through the
	// liar's deterministic lie schedule — the byzantine soak's hook for
	// workers that answer wrong instead of dying. Nil reports honestly.
	Tamper *faultinject.Liar
	// Obs observes the worker's campaigns; nil runs unobserved.
	Obs *obs.Observer

	idOnce sync.Once
	id     string
}

func (w *Worker) parallel() int {
	if w.Parallel <= 0 {
		return 1
	}
	return w.Parallel
}

func (w *Worker) batch() int {
	if w.Batch <= 1 {
		return 1
	}
	if w.Batch > 64 {
		return 64
	}
	return w.Batch
}

func (w *Worker) http() *http.Client {
	if w.HTTP != nil {
		return w.HTTP
	}
	return http.DefaultClient
}

// workerID resolves the worker's identity once: the configured ID, or
// "<hostname>-<pid>" so every process is distinguishable by default.
func (w *Worker) workerID() string {
	w.idOnce.Do(func() {
		w.id = w.ID
		if w.id == "" {
			host, err := os.Hostname()
			if err != nil || host == "" {
				host = "worker"
			}
			w.id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
	})
	return w.id
}

func (w *Worker) backoff() backoff.Policy {
	if w.Backoff == (backoff.Policy{}) {
		return backoff.Policy{Base: 50 * time.Millisecond, Cap: 2 * time.Second, Jitter: 0.5}
	}
	return w.Backoff
}

// hashString folds a string into a backoff seed.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Run pulls and executes tasks until the coordinator drains or ctx
// ends. Connection errors are retried with a short pause — a worker
// outliving a coordinator restart just resumes pulling.
func (w *Worker) Run(ctx context.Context) error {
	if w.Coordinator == "" {
		return errors.New("campaignd: worker needs a coordinator URL")
	}
	runners := &workerRunners{w: w, wl: newWorkloads(w.Obs)}
	var wg sync.WaitGroup
	for slot := 0; slot < w.parallel(); slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w.loop(ctx, runners, slot)
		}(slot)
	}
	wg.Wait()
	return nil
}

// loop is one task goroutine; slot doubles as the runner's measurement
// slot so concurrent tasks never share harness state.
func (w *Worker) loop(ctx context.Context, runners *workerRunners, slot int) {
	fails := 0
	for ctx.Err() == nil {
		lr, status, err := w.lease(ctx)
		switch {
		case err != nil:
			// Coordinator unreachable: back off with seeded jitter so a
			// fleet that lost its coordinator does not stampede back.
			fails++
			select {
			case <-ctx.Done():
			case <-time.After(w.backoff().Delay(fails, hashString(w.workerID()), uint64(slot))):
			}
			continue
		case status == http.StatusServiceUnavailable:
			return // draining: no more work will be leased
		case status == http.StatusForbidden:
			return // quarantined: this identity gets no more work
		case status == http.StatusNoContent:
			// Long poll elapsed with nothing eligible; poll again.
		default:
			w.executeGroup(ctx, runners, slot, w.gather(ctx, lr))
		}
		fails = 0
	}
}

// gather tops a freshly leased task up to the configured batch width with
// whatever the coordinator can hand over immediately — the extra leases
// use a minimal wait so an idle queue never delays the task in hand.
func (w *Worker) gather(ctx context.Context, first leaseResponse) []leaseResponse {
	group := []leaseResponse{first}
	for len(group) < w.batch() {
		var lr leaseResponse
		status, _, err := w.post(ctx, "/worker/lease", leaseRequest{WaitMS: 1, Worker: w.workerID()}, &lr)
		if err != nil || status != http.StatusOK {
			break
		}
		group = append(group, lr)
	}
	return group
}

// lease long-polls the coordinator for one task.
func (w *Worker) lease(ctx context.Context) (leaseResponse, int, error) {
	req := leaseRequest{Worker: w.workerID()}
	if w.Wait > 0 {
		req.WaitMS = w.Wait.Milliseconds()
	}
	var lr leaseResponse
	status, _, err := w.post(ctx, "/worker/lease", req, &lr)
	return lr, status, err
}

// executeGroup runs a group of leased tasks, all heartbeated for the
// duration: leases sharing the first task's campaign execute as one
// batch, the rest singly. Failures to execute become error completions
// (the coordinator owns retry policy); failures to report are abandoned
// — the lease expires and the task's next owner derives the identical
// result.
func (w *Worker) executeGroup(ctx context.Context, runners *workerRunners, slot int, group []leaseResponse) {
	for i := range group {
		defer w.heartbeat(ctx, group[i])()
	}
	head := group[0].CampaignID
	batch := group[:0:0]
	for _, lr := range group {
		if lr.CampaignID == head {
			batch = append(batch, lr)
		}
	}
	w.executeBatch(ctx, runners, slot, batch)
	for _, lr := range group {
		if lr.CampaignID != head {
			w.executeBatch(ctx, runners, slot, []leaseResponse{lr})
		}
	}
}

// executeBatch runs leased tasks of one campaign — layouts or search
// individuals — as one chunk through the runner's chunk driver: every
// task builds, the built ones share one batched trace walk when at
// least two built (a pure accelerator: a declined or failed walk just
// measures sequentially, and a primed measurement is bit-identical to
// an unprimed one), then each is measured and completed individually
// with one attempt — the coordinator owns retry policy, and a failure
// costs only its own task.
func (w *Worker) executeBatch(ctx context.Context, runners *workerRunners, slot int, batch []leaseResponse) {
	runner, err := runners.get(batch[0].CampaignID, batch[0].Spec, batch[0].Scale)
	if err != nil {
		for _, lr := range batch {
			w.complete(ctx, completeRequest{LeaseID: lr.LeaseID, Error: err.Error()})
		}
		return
	}
	leases := batch[:0:0]
	units := make([]core.Unit, 0, len(batch))
	for _, lr := range batch {
		u, err := lr.unit()
		if err != nil {
			w.complete(ctx, completeRequest{LeaseID: lr.LeaseID, Error: err.Error()})
			continue
		}
		leases = append(leases, lr)
		units = append(units, u)
	}
	runner.Run(slot, units, 1, func(j int, o core.Observation, err error) {
		req := completeRequest{LeaseID: leases[j].LeaseID}
		if err != nil {
			req.Error = err.Error()
		} else {
			wire := w.stamp(o, runner)
			req.Observation = &wire
		}
		w.complete(ctx, req)
	})
}

// stamp attests an observation against the runner's toolchain identity
// and, in byzantine soaks, routes it through the configured liar.
func (w *Worker) stamp(o core.Observation, runner *core.LayoutRunner) core.ObsWire {
	wire := reportWire(o, runner)
	if w.Tamper == nil {
		return wire
	}
	lied := w.Tamper.Corrupt(tamperResult(wire), func(r faultinject.WireResult) string {
		return tamperWire(r).Attest(runner.AttestationKey())
	})
	return tamperWire(lied)
}

// tamperResult and tamperWire convert between core's wire observation
// and faultinject's neutral image of it (faultinject cannot import
// core).
func tamperResult(w core.ObsWire) faultinject.WireResult {
	return faultinject.WireResult{
		LayoutSeed: w.LayoutSeed, HeapSeed: w.HeapSeed,
		Cycles: w.Cycles, Instructions: w.Instructions,
		Events: w.Events, Runs: w.Runs, Status: w.Status,
		Attempts: w.Attempts, Fingerprint: w.Fingerprint,
	}
}

func tamperWire(r faultinject.WireResult) core.ObsWire {
	return core.ObsWire{
		LayoutSeed: r.LayoutSeed, HeapSeed: r.HeapSeed,
		Cycles: r.Cycles, Instructions: r.Instructions,
		Events: r.Events, Runs: r.Runs, Status: r.Status,
		Attempts: r.Attempts, Fingerprint: r.Fingerprint,
	}
}

// complete reports one outcome, retrying transport failures and 429s
// under the worker's seeded backoff (honoring Retry-After, delta or
// HTTP-date, like the submit client). Terminal verdicts need no
// handling: a 410 (lease lost) means the result is discarded and the
// requeued task re-derives it elsewhere; a 422 (rejected) means the
// coordinator already released the task and retrying the same bytes
// cannot change its mind.
func (w *Worker) complete(ctx context.Context, req completeRequest) {
	seedA, seedB := hashString(w.workerID()), hashString(req.LeaseID)
	for attempt := 1; attempt <= 3; attempt++ {
		status, hdr, err := w.post(ctx, "/worker/complete", req, &ack{})
		if err == nil && status != http.StatusTooManyRequests {
			return
		}
		wait := w.backoff().Delay(attempt, seedA, seedB)
		if err == nil { // 429: the coordinator names its own delay
			wait = retryAfter(hdr.Get("Retry-After"), time.Now())
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}

// heartbeat keeps the lease alive at a third of the coordinator's lease
// duration while the seams run. A lost lease (410) just stops the beat;
// the completion discovers the loss.
func (w *Worker) heartbeat(ctx context.Context, lr leaseResponse) (stop func()) {
	every := time.Duration(lr.LeaseMS) * time.Millisecond / 3
	if every <= 0 {
		return func() {}
	}
	hbCtx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-ticker.C:
				status, _, err := w.post(hbCtx, "/worker/heartbeat", leaseRef{LeaseID: lr.LeaseID}, nil)
				if err == nil && status != http.StatusNoContent {
					return
				}
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// post sends one protocol request and decodes a JSON response into out
// (when out is non-nil and the response has a body). The response
// headers come back so retry loops can honor Retry-After.
func (w *Worker) post(ctx context.Context, path string, body, out any) (int, http.Header, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.http().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, resp.Header, fmt.Errorf("campaignd: worker: bad %s response: %w", path, err)
		}
	}
	return resp.StatusCode, resp.Header, nil
}

// workerRunners caches one LayoutRunner per campaign. The runner holds
// the campaign's shared work (the one compile all layouts reorder), so
// reusing it across that campaign's tasks is what makes a worker's
// marginal task cost just Reorder+Link+measure. Runners are built over
// the worker's shared workloads, so campaigns of one benchmark and
// budget replay one program and trace. A small bound is plenty: a
// worker rarely interleaves more than a couple of campaigns, and an
// evicted runner is just recomputed.
type workerRunners struct {
	w  *Worker
	wl *workloads

	mu      sync.Mutex
	runners map[string]*core.LayoutRunner
	order   []string // FIFO eviction order
}

// maxWorkerRunners bounds the cached runners per worker process.
const maxWorkerRunners = 4

func (rc *workerRunners) get(id string, spec JobSpec, scale experiments.Scale) (*core.LayoutRunner, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if r, ok := rc.runners[id]; ok {
		return r, nil
	}
	cfg, trace, err := rc.wl.campaign(spec, scale)
	if err != nil {
		return nil, err
	}
	cfg.Faults = rc.w.Faults
	cfg.Obs = rc.w.Obs
	r, err := core.NewLayoutRunnerOn(cfg, trace, rc.w.parallel())
	if err != nil {
		return nil, err
	}
	if rc.runners == nil {
		rc.runners = make(map[string]*core.LayoutRunner)
	}
	for len(rc.order) >= maxWorkerRunners {
		delete(rc.runners, rc.order[0])
		rc.order = rc.order[1:]
	}
	rc.runners[id] = r
	rc.order = append(rc.order, id)
	return r, nil
}
