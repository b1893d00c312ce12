// Command benchreport runs the canonical campaign and replay-engine
// benchmarks in-process and writes a machine-readable JSON report, so CI
// and before/after comparisons consume numbers instead of scraping `go
// test -bench` text. The workloads mirror the benchmarks in
// internal/core and internal/machine: the 32-layout 400.perlbench
// campaign at paper fidelity (sequential and batched) and the batched
// replay engine at steady state.
//
//	benchreport -out BENCH_campaign.json
//
// The report records per benchmark: iterations, ns/op, B/op, allocs/op
// and — for campaign-shaped workloads — layouts/s. Numbers are
// host-dependent; compare reports from the same machine only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"interferometry/internal/core"
	"interferometry/internal/interp"
	"interferometry/internal/machine"
	"interferometry/internal/pmc"
	"interferometry/internal/progen"
	"interferometry/internal/toolchain"
)

// benchResult is one benchmark's measurement in the report.
type benchResult struct {
	Name          string  `json:"name"`
	Iterations    int     `json:"iterations"`
	NsPerOp       float64 `json:"ns_op"`
	BytesPerOp    int64   `json:"b_op"`
	AllocsPerOp   int64   `json:"allocs_op"`
	LayoutsPerSec float64 `json:"layouts_per_sec,omitempty"`
}

// report is the file schema. Host fields make a report self-describing:
// layouts/s is only comparable within one machine.
type report struct {
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	NumCPU      int           `json:"num_cpu"`
	Results     []benchResult `json:"results"`
}

func main() {
	out := flag.String("out", "BENCH_campaign.json", "report file path (- writes to stdout)")
	flag.Parse()

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
	}
	for _, bm := range []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"campaign/sequential", func(b *testing.B) { benchCampaign(b, 1) }},
		{"campaign/batched", func(b *testing.B) { benchCampaign(b, 0) }},
		{"machine/batch-run/k=32", benchBatchRun},
		{"search/8x4", benchSearch},
	} {
		fmt.Fprintf(os.Stderr, "running %s...\n", bm.name)
		r := testing.Benchmark(bm.fn)
		res := benchResult{
			Name:          bm.name,
			Iterations:    r.N,
			NsPerOp:       float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:    r.AllocedBytesPerOp(),
			AllocsPerOp:   r.AllocsPerOp(),
			LayoutsPerSec: r.Extra["layouts/s"],
		}
		fmt.Fprintf(os.Stderr, "  %d iterations, %.0f ns/op, %.0f layouts/s, %d allocs/op\n",
			res.Iterations, res.NsPerOp, res.LayoutsPerSec, res.AllocsPerOp)
		rep.Results = append(rep.Results, res)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

// benchCampaign is the 32-layout paper-fidelity campaign of
// internal/core's BenchmarkCampaignSequential / BenchmarkCampaignBatched:
// batch 1 pins the sequential path, 0 the automatic batched width.
func benchCampaign(b *testing.B, batch int) {
	spec, ok := progen.ByName("400.perlbench")
	if !ok {
		b.Fatal("missing spec")
	}
	cfg := core.CampaignConfig{
		Program:   progen.MustGenerate(spec),
		InputSeed: 1,
		Budget:    200000,
		Layouts:   32,
		Fidelity:  pmc.FidelityPaper,
		BaseSeed:  42,
		BatchSize: batch,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := core.RunCampaign(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Obs) != cfg.Layouts {
			b.Fatalf("campaign returned %d observations", len(ds.Obs))
		}
	}
	b.ReportMetric(float64(cfg.Layouts)*float64(b.N)/b.Elapsed().Seconds(), "layouts/s")
}

// benchSearch is the evolutionary layout search at paper fidelity: an
// 8-individual, 4-generation core.RunSearch over 400.perlbench. The
// throughput metric counts measured individuals (each is one layout
// build + one replay), so it is comparable to the campaign numbers;
// generations/s additionally captures the per-generation settle cost
// (breeding, hashing) that cmd/layoutopt pays.
func benchSearch(b *testing.B) {
	spec, ok := progen.ByName("400.perlbench")
	if !ok {
		b.Fatal("missing spec")
	}
	cfg := core.SearchConfig{
		Campaign: core.CampaignConfig{
			Program:   progen.MustGenerate(spec),
			InputSeed: 1,
			Budget:    200000,
			Layouts:   8,
			Fidelity:  pmc.FidelityPaper,
			BaseSeed:  42,
		},
		Population:  8,
		Generations: 4,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunSearch(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Generations) != cfg.Generations {
			b.Fatalf("search settled %d generations", len(res.Generations))
		}
	}
	individuals := float64(cfg.Population * cfg.Generations)
	b.ReportMetric(individuals*float64(b.N)/b.Elapsed().Seconds(), "layouts/s")
	b.ReportMetric(float64(cfg.Generations)*float64(b.N)/b.Elapsed().Seconds(), "generations/s")
}

// benchBatchRun is internal/machine's BenchmarkBatchRun/bump/k=32: the
// steady-state batched replay engine on the same 200k-instruction
// workload, 32 layouts per trace walk.
func benchBatchRun(b *testing.B) {
	spec, ok := progen.ByName("400.perlbench")
	if !ok {
		b.Fatal("missing spec")
	}
	prog := progen.MustGenerate(spec)
	tr, err := interp.Run(prog, 1, interp.StopRule{Budget: 200000})
	if err != nil {
		b.Fatal(err)
	}
	const k = 32
	specs := make([]machine.RunSpec, k)
	for ki := range specs {
		exe, err := toolchain.BuildLayout(prog, uint64(ki+1), toolchain.CompileConfig{}, toolchain.LinkConfig{})
		if err != nil {
			b.Fatal(err)
		}
		specs[ki] = machine.RunSpec{Exe: exe, Trace: tr, HeapSeed: 3}
	}
	batch, err := machine.NewBatch(machine.XeonE5440(), k)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := batch.Run(specs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := batch.Run(specs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "layouts/s")
}
