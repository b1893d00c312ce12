package campaignd_test

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"interferometry/internal/campaignd"
)

// startWorkers launches n in-process remote workers against the
// coordinator and returns a cancel that stops them and waits. batch > 1
// lets each worker lease that many tasks per pull and batch their
// replays.
func startWorkers(t *testing.T, coordinator string, httpc *http.Client, n, batch int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &campaignd.Worker{
				Coordinator: coordinator,
				HTTP:        httpc,
				Batch:       batch,
				Wait:        100 * time.Millisecond,
			}
			w.Run(ctx)
		}()
	}
	stop = func() {
		cancel()
		wg.Wait()
	}
	t.Cleanup(stop)
	return stop
}

// runSharded runs one spec on a fresh pure coordinator with n remote
// workers (leasing batch tasks per pull) and returns the dataset CSV.
func runSharded(t *testing.T, spec campaignd.JobSpec, n, batch int) []byte {
	t.Helper()
	_, client := startService(t, campaignd.Config{NoLocalWorkers: true})
	startWorkers(t, client.Base, client.HTTP, n, batch)
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("sharded campaign (%d workers) ended %s: %s", n, st.State, st.Error)
	}
	got, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestShardedMatchesSingleProcess is the scale-out headline: the same
// spec run through one remote worker and through four produces the
// exact dataset bytes (provenance columns included) of a clean
// single-process run. Worker count, completion order and network
// scheduling must not move a byte.
func TestShardedMatchesSingleProcess(t *testing.T) {
	spec := testSpec(8)
	want := datasetCSV(t, cleanDataset(t, spec))

	if got := runSharded(t, spec, 1, 0); !bytes.Equal(got, want) {
		t.Errorf("1-worker sharded dataset differs from single-process run:\n--- sharded ---\n%s--- clean ---\n%s", got, want)
	}
	if got := runSharded(t, spec, 4, 0); !bytes.Equal(got, want) {
		t.Errorf("4-worker sharded dataset differs from single-process run:\n--- sharded ---\n%s--- clean ---\n%s", got, want)
	}
}

// TestShardedBatchedMatchesSingleProcess is the batched-replay variant
// of the scale-out headline: 2 workers each leasing up to 4 tasks per
// pull and sharing one trace walk per group must still produce the
// byte-exact dataset of a clean single-process run, whatever mix of
// batch widths the lease timing produces.
func TestShardedBatchedMatchesSingleProcess(t *testing.T) {
	spec := testSpec(10)
	want := datasetCSV(t, cleanDataset(t, spec))

	if got := runSharded(t, spec, 2, 4); !bytes.Equal(got, want) {
		t.Errorf("2-worker batched sharded dataset differs from single-process run:\n--- sharded ---\n%s--- clean ---\n%s", got, want)
	}
}

// blockingTransport passes requests through until it sees the first
// /worker/complete, which it stalls until the request context dies —
// pinning its worker in the "executed but never reported" state a
// crashed worker leaves behind.
type blockingTransport struct {
	base http.RoundTripper
	once sync.Once
	hit  chan struct{} // closed when the first complete is captured
}

func (bt *blockingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/worker/complete") {
		bt.once.Do(func() { close(bt.hit) })
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	return bt.base.RoundTrip(req)
}

// TestShardedWorkerDeathRecovers kills a worker that holds a leased,
// fully executed task whose result never reached the coordinator. The
// lease must expire, the task requeue onto the surviving worker, and
// the finished dataset still match the single-process bytes — a
// re-execution derives identical results, and a lease-expiry requeue
// costs no attempt, so even the provenance columns are unchanged.
func TestShardedWorkerDeathRecovers(t *testing.T) {
	spec := testSpec(6)
	want := datasetCSV(t, cleanDataset(t, spec))

	_, client := startService(t, campaignd.Config{
		NoLocalWorkers: true,
		Lease:          300 * time.Millisecond,
	})

	// The doomed worker goes first, alone, so it is guaranteed to hold
	// a task when it dies.
	bt := &blockingTransport{base: client.HTTP.Transport, hit: make(chan struct{})}
	doomedCtx, kill := context.WithCancel(context.Background())
	defer kill()
	var doomedDone sync.WaitGroup
	doomedDone.Add(1)
	go func() {
		defer doomedDone.Done()
		w := &campaignd.Worker{
			Coordinator: client.Base,
			HTTP:        &http.Client{Transport: bt},
			Wait:        100 * time.Millisecond,
		}
		w.Run(doomedCtx)
	}()

	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-bt.hit: // doomed worker executed a task and is stuck reporting it
	case <-time.After(30 * time.Second):
		t.Fatal("doomed worker never executed a task")
	}
	kill()
	doomedDone.Wait()

	// The survivor finishes the campaign, including the dead worker's
	// requeued task.
	startWorkers(t, client.Base, client.HTTP, 1, 0)
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("campaign ended %s: %s", st.State, st.Error)
	}
	if st.Failed != 0 {
		t.Errorf("worker death produced %d failed layouts; a reaped lease must cost nothing", st.Failed)
	}
	got, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("dataset after worker death differs from single-process run:\n--- sharded ---\n%s--- clean ---\n%s", got, want)
	}
}
