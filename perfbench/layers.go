package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/heap"
	"interferometry/internal/interp"
	"interferometry/internal/isa"
	"interferometry/internal/jobqueue/wal"
	"interferometry/internal/machine"
	"interferometry/internal/pintool"
	"interferometry/internal/pmc"
	"interferometry/internal/progen"
	"interferometry/internal/results"
	"interferometry/internal/toolchain"
	"interferometry/internal/uarch/branch"
	"interferometry/internal/xrand"
)

// layerInputs are the inputs a workload hands its modules: the per-layer
// probes time each module's public functions on exactly these.
type layerInputs struct {
	specs   []progen.Spec // programs the workload generates
	bench   progen.Spec   // the program its campaigns measure
	budget  uint64
	layouts int // layouts per campaign
	width   int // the batch width its campaigns run at
	mode    heap.Mode
	seed    uint64        // campaign BaseSeed; 0 derives one
	ds      *core.Dataset // a finished campaign of the workload, or nil
}

// prober times calls into module public functions, each in a span under
// one root, so their self times sum per layer.
type prober struct {
	r    *run
	tr   *tracer
	root int
}

// call times fn in a span named name.
func (p *prober) call(name string, fn func() error) (float64, error) {
	id := p.tr.start(name, p.root)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0).Seconds()
	p.tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// calls times n calls of fn and returns the durations.
func (p *prober) calls(name string, n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := p.call(name, func() error { return fn(i) })
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// detSource hands Harness.Measure the deterministic replays a batch
// walk already computed, so pmc.measure_s is noise synthesis and checks
// only.
type detSource map[*toolchain.Executable]replay

// replay is one deterministic replay's counters and raw cycle count.
type replay struct {
	c   machine.Counters
	det float64
}

func (s detSource) Det(spec machine.RunSpec) (machine.Counters, float64, bool) {
	v, ok := s[spec.Exe]
	return v.c, v.det, ok
}

// probeLayers times every module below core, and core's own calls, on
// the workload's inputs.
func probeLayers(r *run, tr *tracer, in layerInputs) error {
	p := &prober{r: r, tr: tr, root: tr.root("probes", 1)}
	defer tr.end(p.root)
	reps := r.size.probeReps
	seed := in.seed
	if seed == 0 {
		seed = r.derive(6, 0)
	}
	mcfg := machine.XeonE5440()

	// progen: the workload's whole program set per call.
	var gen []float64
	for i := 0; i < reps; i++ {
		total := 0.0
		for _, spec := range in.specs {
			d, err := p.call("progen.Generate", func() error { _, err := progen.Generate(spec); return err })
			if err != nil {
				return err
			}
			total += d
		}
		gen = append(gen, total)
	}
	r.set("progen.generate_s", median(gen), "s")
	prog, err := progen.Generate(in.bench)
	if err != nil {
		return err
	}

	// interp: trace generation.
	var trace *interp.Trace
	ts, err := p.calls("interp.Run", reps, func(int) error {
		var err error
		trace, err = interp.Run(prog, 1, interp.StopRule{Budget: in.budget})
		return err
	})
	if err != nil {
		return err
	}
	traceS := median(ts)
	r.set("interp.trace_s", traceS, "s")
	r.set("interp.minstr_per_s", float64(trace.Instrs)/1e6/traceS, "Minstr/s")

	// toolchain: compile (NewBuilder + first Build), then per-layout
	// builds by seed and by genome.
	const nExes = 32
	layoutSeed := func(i int) uint64 { return xrand.Mix(seed, 0x6c61796f, uint64(i)) | 1 }
	ts, err = p.calls("toolchain.NewBuilder+Build", reps, func(i int) error {
		_, err := toolchain.NewBuilder(prog, toolchain.CompileConfig{}, toolchain.LinkConfig{}).Build(layoutSeed(i))
		return err
	})
	if err != nil {
		return err
	}
	r.set("toolchain.compile_s", median(ts), "s")
	b := toolchain.NewBuilder(prog, toolchain.CompileConfig{}, toolchain.LinkConfig{})
	exes := make([]*toolchain.Executable, nExes)
	build, err := p.calls("toolchain.Build", nExes, func(i int) error {
		var err error
		exes[i], err = b.Build(layoutSeed(i))
		return err
	})
	if err != nil {
		return err
	}
	r.set("toolchain.build_s", median(build), "s")
	units := b.Units()
	ts, err = p.calls("toolchain.BuildGenome", nExes, func(i int) error {
		_, err := b.BuildGenome(toolchain.GenomeOf(units, layoutSeed(i)))
		return err
	})
	if err != nil {
		return err
	}
	r.set("toolchain.build_genome_s", median(ts), "s")

	// machine: the batched walk at 1/8/16/32 lanes and the scalar walk.
	specs := make([]machine.RunSpec, nExes)
	for i := range specs {
		specs[i] = machine.RunSpec{Exe: exes[i], Trace: trace, HeapMode: in.mode, HeapSeed: layoutSeed(i), NoiseSeed: layoutSeed(i)}
	}
	batch, err := machine.NewBatch(mcfg, nExes)
	if err != nil {
		return err
	}
	walk := map[int]float64{}
	for _, k := range []int{1, 8, 16, 32} {
		if _, _, err := batch.Run(specs[:k]); err != nil { // warm the banks at this width
			return err
		}
		ts, err := p.calls("machine.Batch.Run", reps, func(int) error { _, _, err := batch.Run(specs[:k]); return err })
		if err != nil {
			return err
		}
		walk[k] = median(ts)
		r.set(fmt.Sprintf("machine.lane_minstr_per_s.k%d", k), float64(trace.Instrs)*float64(k)/1e6/walk[k], "Minstr/s")
	}
	r.set("machine.batch_run_s", walk[laneBucket(in.width)], "s")
	cs, dets, err := batch.Run(specs)
	if err != nil {
		return err
	}
	src := detSource{}
	for i := range specs {
		src[exes[i]] = replay{cs[i], dets[i]}
	}
	m := machine.New(mcfg)
	ts, err = p.calls("machine.Machine.RunDeterministic", reps, func(i int) error {
		_, _, err := m.RunDeterministic(specs[i%nExes])
		return err
	})
	if err != nil {
		return err
	}
	r.set("machine.scalar_run_s", median(ts), "s")

	// pmc: the §5.5 protocol over primed replays.
	h := &pmc.Harness{Machine: m, Fidelity: pmc.FidelityPaper, Det: src}
	measure, err := p.calls("pmc.Harness.Measure", 4*nExes, func(i int) error {
		_, err := h.Measure(specs[i%nExes])
		return err
	})
	if err != nil {
		return err
	}
	r.set("pmc.measure_s", median(measure), "s")

	// pintool / uarch: the Figure 7 predictors, and L-TAGE alone.
	all := branch.PaperPredictors()
	var ltage []branch.Factory
	for _, f := range all {
		if f.Name == "l-tage" {
			ltage = append(ltage, f)
		}
	}
	pin, err := p.calls("pintool.Run", reps, func(i int) error {
		_, err := pintool.Run(trace, exes[i%nExes], all, pintool.Config{Warmup: true})
		return err
	})
	if err != nil {
		return err
	}
	lt, err := p.calls("pintool.Run", reps, func(i int) error {
		_, err := pintool.Run(trace, exes[i%nExes], ltage, pintool.Config{Warmup: true})
		return err
	})
	if err != nil {
		return err
	}
	r.set("pintool.run_s", median(pin), "s")
	r.set("pintool.ltage_share", median(lt)/median(pin), "ratio")

	iso := isolated{trace: traceS, build: median(build), measure: median(measure), walk: walk}
	if err := probeCore(p, in, prog, seed, iso); err != nil {
		return err
	}
	return probeDurability(p)
}

// laneBucket is the measured lane width (1, 8, 16 or 32) nearest above
// a batch width.
func laneBucket(width int) int {
	for _, k := range []int{1, 8, 16} {
		if width <= k {
			return k
		}
	}
	return 32
}

// isolated are the costs the lower-layer probes measured in isolation:
// one trace generation, one build, one measurement, and the batch walk
// by lane width.
type isolated struct {
	trace, build, measure float64
	walk                  map[int]float64
}

// probeCore times core's public calls on the workload's campaign shape.
func probeCore(p *prober, in layerInputs, prog *isa.Program, seed uint64, iso isolated) error {
	r := p.r
	cfg := core.CampaignConfig{Program: prog, InputSeed: 1, Budget: in.budget, Layouts: in.layouts,
		HeapMode: in.mode, Fidelity: pmc.FidelityPaper, BaseSeed: seed}
	reps := max(2, r.size.probeReps/2)

	// The campaign at nproc workers and at one.
	var ds *core.Dataset
	par, err := p.calls("core.RunCampaign", reps, func(int) error {
		var err error
		ds, err = core.RunCampaign(cfg)
		return err
	})
	if err != nil {
		return err
	}
	one := cfg
	one.Workers = 1
	seq, err := p.calls("core.RunCampaign", reps, func(int) error { _, err := core.RunCampaign(one); return err })
	if err != nil {
		return err
	}
	// Self time per layout from the one-worker campaign, whose wall
	// clock is the sum of its parts: what is left after the trace, the
	// build, the walk's per-lane share and the measurement is core's.
	k := laneBucket(min(in.layouts, 32))
	perLayout := iso.build + iso.walk[k]/float64(k) + iso.measure
	r.set("core.campaign_self_s", (median(seq)-iso.trace)/float64(in.layouts)-perLayout, "s")
	r.set("core.parallel_speedup", median(seq)/median(par), "ratio")
	if in.ds == nil {
		in.ds = ds
	}

	// Evaluation, fitting and the linearity study on a 30-layout dataset.
	small := cfg
	small.Layouts = min(cfg.Layouts, 30)
	ds30, err := core.RunCampaign(small)
	if err != nil {
		return err
	}
	model, err := ds30.MPKIModel()
	if err != nil {
		return err
	}
	ts, err := p.calls("core.Dataset.EvaluatePredictors", reps, func(int) error {
		_, err := ds30.EvaluatePredictors(model, branch.PaperPredictors())
		return err
	})
	if err != nil {
		return err
	}
	r.set("core.evaluate_predictors_s", median(ts), "s")
	ts, err = p.calls("stats.fit", 10*reps, func(int) error {
		if _, err := ds30.MPKIModel(); err != nil {
			return err
		}
		// On some benchmarks the counters are collinear and the
		// combined fit reports a singular design matrix; that is a
		// property of the data, and the attempt still costs what it
		// costs, so the timing keeps it.
		_, _ = ds30.StandardCombined()
		return nil
	})
	if err != nil {
		return err
	}
	r.set("stats.fit_s", median(ts), "s")
	sc := r.size.report
	ts, err = p.calls("core.RunLinearityStudy", reps, func(int) error {
		_, err := core.RunLinearityStudy(core.LinearityConfig{Program: prog, InputSeed: 1, Budget: sc.SimBudget,
			Configs: branch.ConfigSpace(sc.Configs)})
		return err
	})
	if err != nil {
		return err
	}
	r.set("core.linearity_s", median(ts), "s")

	// Checkpoint persistence, one observation per Put.
	ck := small
	ck.Checkpoint.Dir = filepath.Join(r.dir, "probe-checkpoint")
	sink, err := core.OpenCheckpointSink(ck)
	if err != nil {
		return err
	}
	ts, err = p.calls("core.CheckpointSink.Put", len(ds30.Obs), func(i int) error { sink.Put(i, ds30.Obs[i]); return nil })
	if err != nil {
		return err
	}
	if err := sink.Close(); err != nil {
		return err
	}
	r.set("core.checkpoint_put_s", median(ts), "s")

	// One search generation: Evaluate + Settle.
	search, err := core.NewSearch(core.SearchConfig{Campaign: cfg, Population: r.size.searchPop,
		Generations: r.size.searchGens}, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	genomes, err := search.Genomes(0, nil)
	if err != nil {
		return err
	}
	ts, err = p.calls("core.Search.Evaluate+Settle", reps, func(int) error {
		obs, err := search.Evaluate(context.Background(), genomes)
		if err != nil {
			return err
		}
		_, err = search.Settle(0, genomes, obs)
		return err
	})
	if err != nil {
		return err
	}
	r.set("core.search_generation_s", median(ts), "s")

	// results: the workload's dataset as measurement CSV.
	ts, err = p.calls("results.WriteMeasurementsCSV", reps, func(int) error {
		var buf bytes.Buffer
		return results.WriteMeasurementsCSV(&buf, in.ds)
	})
	if err != nil {
		return err
	}
	r.set("results.csv_s", median(ts), "s")
	return nil
}

// probeDurability times the WAL record append and the raw durable
// append beneath it, on scratch files.
func probeDurability(p *prober) error {
	const n = 32
	log, _, err := wal.Open(wal.Config{Path: filepath.Join(p.r.dir, "probe.wal")})
	if err != nil {
		return err
	}
	defer log.Close()
	ts, err := p.calls("wal.Log.Task", n, func(i int) error { return log.Task("probe", i, "done") })
	if err != nil {
		return err
	}
	p.r.set("wal.append_s", median(ts), "s")
	s, err := atomicioAppendS(p.r.dir, n, p.tr, p.root)
	if err != nil {
		return err
	}
	p.r.set("atomicio.append_s", s, "s")
	return nil
}
