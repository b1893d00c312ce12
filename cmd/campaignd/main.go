// Command campaignd serves the resilient campaign job service: campaigns
// submitted as JSON are decomposed into per-layout tasks on a bounded
// priority queue and measured under worker leases, per-seam circuit
// breakers and seeded-backoff retries. Determinism makes the resilience
// free of caveats — whatever faults or restarts disturb the schedule, a
// finished campaign's dataset is byte-identical to a clean run.
//
// Serve mode:
//
//	campaignd -addr localhost:8347 -workers 4 -checkpoint-root /var/lib/campaignd
//
// Endpoints: POST /campaigns, GET /campaigns/{id}[/result|/measurements],
// /healthz, /readyz, /queuez, /metrics. SIGTERM drains gracefully: stop
// admission, finish leased tasks, flush checkpoints, exit.
//
// Scale-out: a server started with -workers 0 is a pure coordinator;
// any number of worker processes on other machines pull its leased
// layout tasks over HTTP and stream observations back. The merged
// dataset is byte-identical whatever the worker count or ordering:
//
//	campaignd -addr :8347 -workers 0 -checkpoint-root /var/lib/campaignd
//	campaignd -worker -coordinator http://coordinator:8347 -workers 4
//
// Chaos soak mode proves the byte-identity claim against the live
// service under injected error bursts, panics and latency spikes
// (-chaos-shard-workers N runs the rounds in sharded mode):
//
//	campaignd -chaos -chaos-benchmark 429.mcf -chaos-rounds 3
//
// -chaos-search soaks an evolutionary layout-search campaign the same
// way, comparing generation exports (and the summary report) against a
// clean single-process search; -chaos-coordinator-kill N additionally
// hard-kills and restarts the coordinator mid-trajectory.
//
// -chaos-byzantine K makes K of the sharded workers liars that corrupt
// every result they report (flipped counters, stale seeds, replays,
// bad or forged fingerprints). Attestation checks and spot-audit
// re-execution must reject every lie, quarantine the liars, and still
// finish the campaign byte-identical to the clean run:
//
//	campaignd -chaos -chaos-shard-workers 4 -chaos-byzantine 2 \
//	    -chaos-error 0 -chaos-panic 0 -chaos-spike 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"interferometry/internal/campaignd"
	"interferometry/internal/experiments"
	"interferometry/internal/faultinject"
	"interferometry/internal/jobqueue"
	"interferometry/internal/jobqueue/backoff"
	"interferometry/internal/obs"
	"interferometry/internal/obsflag"
)

func main() {
	var (
		addr           = flag.String("addr", "localhost:8347", "listen address")
		scaleName      = flag.String("scale", "small", "default campaign scale: small, medium or paper")
		workers        = flag.Int("workers", 2, "task worker pool size (serve: 0 = coordinator only; worker: concurrent tasks)")
		workerMode     = flag.Bool("worker", false, "run as a remote worker pulling tasks from -coordinator")
		coordinator    = flag.String("coordinator", "", "coordinator base URL for -worker mode, e.g. http://host:8347")
		workerBatch    = flag.Int("batch", 0, "worker mode: tasks leased per pull; same-campaign leases share one batched trace walk (<=1 leases singly)")
		queueCap       = flag.Int("queue-capacity", 256, "max tasks in the system (queued + leased)")
		lease          = flag.Duration("lease", 30*time.Second, "task lease duration without a heartbeat")
		maxAttempts    = flag.Int("max-attempts", 3, "executions per layout before permanent failure")
		checkpointRoot = flag.String("checkpoint-root", "", "directory for per-campaign checkpoints (empty = off; defaults to <wal-dir>/checkpoints when -wal-dir is set)")
		walDir         = flag.String("wal-dir", "", "directory for the write-ahead log; submissions are replayed and resumed after a crash (empty = off)")
		workerID       = flag.String("worker-id", "", "worker mode: identity reported on leases for fleet health tracking (empty = <hostname>-<pid>)")

		auditRate     = flag.Float64("audit-rate", 0, "fraction of accepted remote results the coordinator re-executes and byte-compares (0 = off, 1 = all)")
		quarThreshold = flag.Int("quarantine-threshold", 0, "rejected results within a worker's health window before it is quarantined (0 = default 3)")

		tenantQueued    = flag.Int("tenant-max-queued", 0, "per-tenant cap on tasks in the system, queued + leased (0 = unlimited)")
		tenantCampaigns = flag.Int("tenant-max-campaigns", 0, "per-tenant cap on running campaigns (0 = unlimited)")
		fairQuantum     = flag.Int("fair-quantum", 0, "tasks a tenant pops per fair-scheduling turn (0 = 1)")

		backoffBase   = flag.Duration("backoff-base", 50*time.Millisecond, "first retry delay")
		backoffCap    = flag.Duration("backoff-cap", 2*time.Second, "max retry delay")
		backoffJitter = flag.Float64("backoff-jitter", 0.5, "seeded jitter fraction of each delay [0,1]")

		breakerTrip = flag.Int("breaker-trip", 5, "consecutive seam failures that open the breaker")
		breakerOpen = flag.Duration("breaker-open", 5*time.Second, "how long an open breaker rejects before probing")
		breakerSlow = flag.Duration("breaker-slow", 0, "seam calls at least this slow count as failures (0 = off)")

		chaos       = flag.Bool("chaos", false, "run the deterministic chaos soak instead of serving")
		chaosBench  = flag.String("chaos-benchmark", "429.mcf", "benchmark the soak measures")
		chaosLay    = flag.Int("chaos-layouts", 8, "layouts per soak campaign")
		chaosSearch = flag.Bool("chaos-search", false, "soak a layout-search campaign instead of a sampling sweep")
		chaosPop    = flag.Int("chaos-search-population", 5, "search soak: individuals per generation")
		chaosGens   = flag.Int("chaos-search-generations", 3, "search soak: generations per campaign")
		chaosRounds = flag.Int("chaos-rounds", 3, "faulted service rounds")
		chaosSeed   = flag.Uint64("chaos-seed", 0xc4a05, "root seed of the per-round fault schedules")
		chaosShard  = flag.Int("chaos-shard-workers", 0, "run soak rounds sharded across this many workers (0 = single process)")
		chaosKills  = flag.Int("chaos-coordinator-kill", 0, "hard-kill and restart a WAL-backed coordinator this many times per soak round (0 = off)")
		chaosBatch  = flag.Int("chaos-worker-batch", 0, "sharded soak workers lease this many tasks per pull (batched replay; <=1 leases singly)")
		chaosByz    = flag.Int("chaos-byzantine", 0, "sharded soak rounds make this many workers liars: corrupted results must all be rejected or audit-disowned (0 = off)")
		chaosError  = flag.Float64("chaos-error", 0.2, "per-call injected error rate")
		chaosPanic  = flag.Float64("chaos-panic", 0.1, "per-call injected panic rate")
		chaosSpike  = flag.Float64("chaos-spike", 0.2, "per-call latency-spike rate")
		chaosP99    = flag.Duration("chaos-spike-p99", 10*time.Millisecond, "latency-spike p99")
	)
	obsFlags := obsflag.Register(flag.CommandLine)
	flag.Parse()

	scale, ok := experiments.ScaleByName(*scaleName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scale %q (want small, medium or paper)\n", *scaleName)
		os.Exit(2)
	}

	if *chaos {
		spec := campaignd.JobSpec{Benchmark: *chaosBench, Layouts: *chaosLay}
		if *chaosSearch {
			spec.Kind = campaignd.KindSearch
			spec.Search = &campaignd.SearchSpec{Population: *chaosPop, Generations: *chaosGens}
		}
		err := campaignd.Soak(campaignd.SoakConfig{
			Spec:             spec,
			Scale:            scale,
			Rounds:           *chaosRounds,
			Seed:             *chaosSeed,
			Workers:          *workers,
			ShardWorkers:     *chaosShard,
			WorkerBatch:      *chaosBatch,
			ByzantineWorkers: *chaosByz,
			AuditRate:        *auditRate,
			CoordinatorKills: *chaosKills,
			Rates: faultinject.Rates{
				Error: *chaosError, Panic: *chaosPanic,
				Spike: *chaosSpike, SpikeP99: *chaosP99,
			},
			Out: os.Stdout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos soak: %v\n", err)
			os.Exit(1)
		}
		return
	}

	observer, err := obsFlags.Observer("campaignd")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if observer == nil {
		// The service always keeps a metrics registry: /metrics should
		// work without any -metrics-out flag.
		observer = &obs.Observer{Metrics: obs.NewMetrics()}
	} else if observer.Metrics == nil {
		observer.Metrics = obs.NewMetrics()
	}

	if *workerMode {
		if *coordinator == "" {
			fmt.Fprintln(os.Stderr, "-worker needs -coordinator URL")
			os.Exit(2)
		}
		w := &campaignd.Worker{
			Coordinator: *coordinator,
			ID:          *workerID,
			Parallel:    *workers,
			Batch:       *workerBatch,
			Obs:         observer,
		}
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
		defer stop()
		fmt.Printf("campaignd worker pulling from %s (%d parallel)\n", *coordinator, *workers)
		if err := w.Run(ctx); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := obsFlags.Close(observer); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("campaignd worker stopped")
		return
	}

	if *walDir != "" && *checkpointRoot == "" {
		// Durability is only whole if results persist alongside intent:
		// a WAL without checkpoints would replay submissions but re-run
		// every layout from scratch.
		*checkpointRoot = filepath.Join(*walDir, "checkpoints")
	}
	srv, err := campaignd.New(campaignd.Config{
		Scale:                 scale,
		Workers:               *workers,
		NoLocalWorkers:        *workers == 0,
		QueueCapacity:         *queueCap,
		Lease:                 *lease,
		MaxAttempts:           *maxAttempts,
		CheckpointRoot:        *checkpointRoot,
		WALDir:                *walDir,
		MaxQueuedPerTenant:    *tenantQueued,
		MaxCampaignsPerTenant: *tenantCampaigns,
		FairQuantum:           *fairQuantum,
		AuditRate:             *auditRate,
		QuarantineThreshold:   *quarThreshold,
		Backoff:               backoff.Policy{Base: *backoffBase, Cap: *backoffCap, Jitter: *backoffJitter},
		Breaker: jobqueue.BreakerConfig{
			TripAfter:     *breakerTrip,
			OpenFor:       *breakerOpen,
			SlowThreshold: *breakerSlow,
		},
		Obs: observer,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv.Start()
	stopSignals := srv.DrainOnSignal()
	defer stopSignals()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	httpSrv := campaignd.NewHTTPServer(srv.Handler())
	go func() {
		if serr := httpSrv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "campaignd: %v\n", serr)
			os.Exit(1)
		}
	}()
	fmt.Printf("campaignd listening on %s (scale %s, %d workers, queue %d)\n",
		ln.Addr(), scale.Name, *workers, *queueCap)

	// Serve until a signal starts the drain; exit once it finishes.
	<-srv.Done()
	httpSrv.Close()
	if err := obsFlags.Close(observer); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("campaignd drained cleanly")
}
