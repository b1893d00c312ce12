package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/heap"
	"interferometry/internal/pmc"
	"interferometry/internal/progen"
	"interferometry/internal/results"
)

// campaignPerlbench is one core.RunCampaign of 400.perlbench at paper
// fidelity, bump heap and the auto batch width, repeated for the run.
type campaignPerlbench struct {
	cfg core.CampaignConfig

	walls, cpus []float64
	csvHashes   []string
	last        *core.Dataset
}

func (w *campaignPerlbench) prepare(r *run) error {
	spec, _ := progen.ByName("400.perlbench")
	prog, err := progen.Generate(spec)
	if err != nil {
		return err
	}
	w.cfg = core.CampaignConfig{
		Program:   prog,
		InputSeed: 1,
		Budget:    r.size.campaignBudget,
		Layouts:   r.size.campaignLayouts,
		HeapMode:  heap.ModeBump,
		Fidelity:  pmc.FidelityPaper,
		BaseSeed:  r.derive(4, 0),
	}
	// Warm-up: two full-width chunks per worker pay the batch engines
	// and pools.
	warm := w.cfg
	warm.Layouts = min(w.cfg.Layouts, 128)
	_, err = core.RunCampaign(warm)
	return err
}

func (w *campaignPerlbench) teardown() {}

func (w *campaignPerlbench) phase(r *run, d time.Duration, tr *tracer) ([]float64, error) {
	var walls []float64
	start := time.Now()
	for len(walls) < 2 || time.Since(start).Seconds()+walls[len(walls)-1] <= d.Seconds() {
		root := tr.root("campaign", 1)
		id := tr.start("core.RunCampaign", root)
		c0, t0 := cpuSeconds(), time.Now()
		ds, err := core.RunCampaign(w.cfg)
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - c0
		tr.end(id)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall)
		r.attempted += len(ds.Obs)
		r.failed += len(ds.Failures)
		var buf bytes.Buffer
		if err := results.WriteMeasurementsCSV(&buf, ds); err != nil {
			return nil, err
		}
		if r.corrupt && len(w.csvHashes) > 0 {
			buf.Bytes()[buf.Len()/2] ^= 0x20
		}
		sum := sha256.Sum256(buf.Bytes())
		w.csvHashes = append(w.csvHashes, hex.EncodeToString(sum[:]))
		w.last = ds
		if tr == nil {
			w.walls = append(w.walls, wall)
			w.cpus = append(w.cpus, cpu)
		}
	}
	return walls, nil
}

func (w *campaignPerlbench) check(r *run) {
	for i, h := range w.csvHashes[1:] {
		if h != w.csvHashes[0] {
			r.fail("campaign unit %d measurements differ from unit 0's", i+1)
		} else {
			r.pass()
		}
	}
	for s := 0; s < r.size.checkSamples; s++ {
		checkScalar(r, w.last, int(r.derive(5, uint64(s))%uint64(len(w.last.Obs))))
	}
}

func (w *campaignPerlbench) endToEnd(r *run) {
	layouts := float64(w.cfg.Layouts)
	var lrates, crates []float64
	for _, wall := range w.walls {
		lrates = append(lrates, layouts/wall)
		crates = append(crates, 1/wall)
	}
	r.set("wall_s", median(w.walls), "s")
	r.set("cpu_s", median(w.cpus), "s")
	r.set("layouts_per_s", median(lrates), "layouts/s")
	r.set("campaigns_per_s", median(crates), "campaigns/s")
	r.set("latency_p50_s", median(w.walls), "s")
	r.set("latency_p90_s", quantile(w.walls, 0.9), "s")
}

func (w *campaignPerlbench) layers(r *run, tr *tracer) error {
	spec, _ := progen.ByName("400.perlbench")
	in := layerInputs{
		specs:   []progen.Spec{spec},
		bench:   spec,
		budget:  w.cfg.Budget,
		layouts: w.cfg.Layouts,
		width:   32,
		mode:    heap.ModeBump,
		seed:    w.cfg.BaseSeed,
		ds:      w.last,
	}
	if err := probeLayers(r, tr, in); err != nil {
		return err
	}
	if err := tracedReport(r, tr); err != nil {
		return err
	}
	return serviceLayers(r, tr, 2*time.Second)
}

// tracedReport runs one traced report unit for the experiments metrics
// on a workload whose own phase does not run the report.
func tracedReport(r *run, tr *tracer) error {
	rep := &reportSmall{}
	if err := rep.prepare(r); err != nil {
		return err
	}
	root := tr.root("report", 1)
	_, err := rep.unit(r, tr, root, filepath.Join(r.dir, "layer-report"))
	tr.end(root)
	if err != nil {
		return err
	}
	reportLayers(r, tr, rep.fig7)
	return nil
}
