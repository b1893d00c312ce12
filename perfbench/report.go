package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/heap"
	"interferometry/internal/progen"
	"interferometry/internal/results"
)

// canonicalReportDigest is the SHA-256 over every figure JSON and
// dataset CSV that the small-scale report writes at the canonical base
// seed (workload seed 0); `report -scale small` writes the same bytes.
// report.md is left out: it embeds a timestamp and timing histograms.
const canonicalReportDigest = "79a1d624373661abcd947b7b31eb2fe095c2b40cacb70c5071ed2ca8b267d6d6"

// canonicalBaseSeed is experiments.NewContext's base seed.
const canonicalBaseSeed = 0x1f2e3d4c

// paperFig7 are the paper's Figure 7 averages.
var paperFig7 = map[string]float64{"real": 6.306, "gas-8KB": 5.729, "gas-16KB": 5.542, "l-tage": 3.995}

// reportSmall is the in-process equivalent of `report -scale small`:
// all 14 sections in cmd/report order on one experiments.Context,
// outputs written to a scratch directory.
type reportSmall struct {
	baseSeed uint64

	walls, cpus, layoutRates, campaignRates []float64
	digests                                 []string
	datasets                                map[string]*core.Dataset // of the last unit
	fig7                                    *experiments.Fig7Result
}

// renderer is every section result.
type renderer interface{ Render() string }

func (w *reportSmall) prepare(r *run) error {
	w.baseSeed = canonicalBaseSeed
	if r.seed != 0 {
		w.baseSeed = r.derive(1, 0)
	}
	for _, spec := range progen.Suite() {
		if _, err := progen.Generate(spec); err != nil {
			return err
		}
	}
	// Warm-up: one campaign shaped like the report's (Scale layouts at
	// the auto batch width) pays engine and pool allocation.
	spec, _ := progen.ByName(progen.Table1Names[0])
	prog, err := progen.Generate(spec)
	if err != nil {
		return err
	}
	sc := r.size.report
	_, err = core.RunCampaign(core.CampaignConfig{Program: prog, InputSeed: 1, Budget: sc.Budget,
		Layouts: sc.Layouts, Fidelity: sc.Fidelity, BaseSeed: w.baseSeed})
	return err
}

func (w *reportSmall) teardown() {}

func (w *reportSmall) phase(r *run, d time.Duration, tr *tracer) ([]float64, error) {
	var walls []float64
	start := time.Now()
	for len(walls) < 2 || time.Since(start).Seconds()+walls[len(walls)-1] <= d.Seconds() {
		out := filepath.Join(r.dir, fmt.Sprintf("report-%d", len(w.digests)))
		root := tr.root("report", 1)
		c0, t0 := cpuSeconds(), time.Now()
		ctx, err := w.unit(r, tr, root, out)
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - c0
		tr.end(root)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall)
		if tr != nil {
			continue // traced units feed only the per-layer metrics
		}
		layouts := 0
		for _, ds := range ctx.CachedDatasets() {
			layouts += len(ds.Obs)
		}
		w.walls = append(w.walls, wall)
		w.cpus = append(w.cpus, cpu)
		w.layoutRates = append(w.layoutRates, float64(layouts)/wall)
		w.campaignRates = append(w.campaignRates, float64(len(ctx.CachedDatasets()))/wall)
	}
	return walls, nil
}

// unit writes one full report into out and records its digest.
func (w *reportSmall) unit(r *run, tr *tracer, root int, out string) (*experiments.Context, error) {
	if err := os.MkdirAll(filepath.Join(out, "datasets"), 0o755); err != nil {
		return nil, err
	}
	ctx := experiments.NewContext(r.size.report)
	ctx.BaseSeed = w.baseSeed
	var md strings.Builder
	fmt.Fprintf(&md, "# Program Interferometry — reproduction report\n\nscale: %s, generated %s\n\n",
		ctx.Scale.Name, time.Now().Format(time.RFC3339))

	var fig4 *experiments.Fig4Result
	var fig7 *experiments.Fig7Result
	sections := []struct {
		name string
		run  func() (renderer, error)
	}{
		{"fig1", func() (renderer, error) { return experiments.Figure1(ctx) }},
		{"fig2", func() (renderer, error) { return experiments.Figure2(ctx) }},
		{"fig3", func() (renderer, error) { return experiments.Figure3(ctx) }},
		{"fig4", func() (renderer, error) {
			res, err := experiments.Figure4(ctx)
			fig4 = res
			return res, err
		}},
		{"fig5", func() (renderer, error) { return experiments.Figure5(ctx, fig4) }},
		{"fig6", func() (renderer, error) { return experiments.Figure6(ctx) }},
		{"fig7", func() (renderer, error) {
			res, err := experiments.Figure7(ctx)
			fig7 = res
			return res, err
		}},
		{"fig8", func() (renderer, error) { return experiments.Figure8(ctx, fig7) }},
		{"table1", func() (renderer, error) { return experiments.Table1(ctx) }},
		{"significance", func() (renderer, error) { return experiments.Significance(ctx) }},
		{"ablation", func() (renderer, error) { return experiments.Ablations(ctx) }},
		{"ext-icache", func() (renderer, error) { return experiments.ExtICache(ctx) }},
		{"ext-dcache", func() (renderer, error) { return experiments.ExtDCache(ctx) }},
		{"ext-depth", func() (renderer, error) { return experiments.ExtDepth(ctx) }},
	}
	for _, s := range sections {
		id := tr.start("experiments."+sectionMetric(s.name), root)
		res, err := s.run()
		tr.end(id)
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.name, err)
			continue
		}
		fmt.Fprintf(&md, "## %s\n\n```\n%s```\n\n", s.name, res.Render())
		if err := writeJSON(filepath.Join(out, s.name+".json"), res); err != nil {
			return nil, err
		}
	}
	for key, ds := range ctx.CachedDatasets() {
		r.attempted += len(ds.Obs)
		r.failed += len(ds.Failures)
		var buf bytes.Buffer
		if err := results.WriteDatasetCSV(&buf, ds); err != nil {
			return nil, err
		}
		name := strings.ReplaceAll(key, "/", "_") + ".csv"
		if err := os.WriteFile(filepath.Join(out, "datasets", name), buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	if err := os.WriteFile(filepath.Join(out, "report.md"), []byte(md.String()), 0o644); err != nil {
		return nil, err
	}
	if r.corrupt && len(w.digests) > 0 {
		if err := flipByte(filepath.Join(out, "fig7.json")); err != nil {
			return nil, err
		}
	}
	digest, err := reportDigest(out)
	if err != nil {
		return nil, err
	}
	w.digests = append(w.digests, digest)
	w.datasets = ctx.CachedDatasets()
	w.fig7 = fig7
	return ctx, os.RemoveAll(out)
}

// sectionMetric turns a section name into its metric-name form.
func sectionMetric(name string) string { return strings.ReplaceAll(name, "-", "_") }

func writeJSON(path string, v any) error {
	var buf bytes.Buffer
	if err := results.WriteJSON(&buf, v); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// reportDigest hashes every figure JSON and dataset CSV under dir, by
// relative path in sorted order.
func reportDigest(dir string) (string, error) {
	var files []string
	for _, pat := range []string{"*.json", filepath.Join("datasets", "*.csv")} {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return "", err
		}
		files = append(files, m...)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(dir, f)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// flipByte corrupts one byte in the middle of a file.
func flipByte(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("%s is empty", path)
	}
	data[len(data)/2] ^= 0x20
	return os.WriteFile(path, data, 0o644)
}

func (w *reportSmall) check(r *run) {
	for i, d := range w.digests[1:] {
		if d != w.digests[0] {
			r.fail("report unit %d digest %s differs from unit 0's %s", i+1, d, w.digests[0])
		} else {
			r.pass()
		}
	}
	if r.seed == 0 && r.size.report == experiments.Small {
		if w.digests[0] != canonicalReportDigest {
			r.fail("report digest %s, want the canonical %s", w.digests[0], canonicalReportDigest)
		} else {
			r.pass()
		}
	}
	// The batched campaigns behind the figures against the scalar oracle.
	keys := make([]string, 0, len(w.datasets))
	for k := range w.datasets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for s := 0; s < r.size.checkSamples; s++ {
		ds := w.datasets[keys[r.derive(2, uint64(s))%uint64(len(keys))]]
		checkScalar(r, ds, int(r.derive(3, uint64(s))%uint64(len(ds.Obs))))
	}
}

func (w *reportSmall) endToEnd(r *run) {
	r.set("wall_s", median(w.walls), "s")
	r.set("cpu_s", median(w.cpus), "s")
	r.set("layouts_per_s", median(w.layoutRates), "layouts/s")
	r.set("campaigns_per_s", median(w.campaignRates), "campaigns/s")
	r.set("latency_p50_s", median(w.walls), "s")
	r.set("latency_p90_s", quantile(w.walls, 0.9), "s")
}

func (w *reportSmall) layers(r *run, tr *tracer) error {
	reportLayers(r, tr, w.fig7)
	spec, _ := progen.ByName(progen.Table1Names[0])
	in := layerInputs{
		specs:   progen.Suite(),
		bench:   spec,
		budget:  r.size.report.Budget,
		layouts: r.size.report.Layouts,
		width:   16,
		mode:    heap.ModeBump,
	}
	if err := probeLayers(r, tr, in); err != nil {
		return err
	}
	return serviceLayers(r, tr, 2*time.Second)
}

// reportLayers reports the experiments metrics from the traced report
// unit's section spans.
func reportLayers(r *run, tr *tracer, fig7 *experiments.Fig7Result) {
	for _, name := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"table1", "significance", "ablation", "ext_icache", "ext_dcache", "ext_depth"} {
		r.set("experiments."+name+"_s", median(tr.durations("experiments."+name)), "s")
	}
	errSum, n := 0.0, 0
	if fig7 != nil {
		for name, want := range paperFig7 {
			if got, ok := fig7.Avg[name]; ok {
				d := (got - want) / want
				if d < 0 {
					d = -d
				}
				errSum += d
				n++
			}
		}
	}
	r.set("experiments.fig7_mpki_err_pct", 100*errSum/float64(max(n, 1)), "%")
}
