package pintool_test

import (
	"fmt"
	"testing"

	"interferometry/internal/interp"
	"interferometry/internal/pintool"
	"interferometry/internal/progen"
	"interferometry/internal/toolchain"
	"interferometry/internal/uarch/branch"
)

// paperGolden pins the exact misprediction counts of Figure 7's
// predictors (branch.PaperPredictors) on fixed (benchmark, layout seed)
// pairs, with and without warmup. The counts were recorded from the
// reference predictor kernels; any optimization of a predictor's hot
// path must reproduce them bit for bit.
var paperGolden = []struct {
	bench  string
	budget uint64
	layout uint64
	warmup bool
	// cond holds CondMispredicts in PaperPredictors order: gas-2KB,
	// gas-4KB, gas-8KB, gas-16KB, l-tage.
	cond     [5]uint64
	indirect uint64
}{
	{"400.perlbench", 200000, 1, false, [5]uint64{2745, 2899, 2910, 3100, 1382}, 13},
	{"400.perlbench", 200000, 1, true, [5]uint64{1823, 1817, 1809, 1841, 734}, 9},
	{"429.mcf", 200000, 7, false, [5]uint64{1707, 1838, 1845, 1904, 938}, 0},
	{"429.mcf", 200000, 7, true, [5]uint64{1297, 1311, 1311, 1239, 696}, 0},
	{"473.astar", 200000, 42, false, [5]uint64{1991, 2054, 2067, 2157, 912}, 0},
	{"473.astar", 200000, 42, true, [5]uint64{1276, 1205, 1218, 1180, 473}, 0},
	// 159k conditional branches per pass: with warmup, L-TAGE crosses its
	// periodic useful-bit reset (every 256Ki updates).
	{"400.perlbench", 3000000, 3, true, [5]uint64{25431, 23766, 23323, 22096, 9633}, 150},
}

func TestPaperPredictorsGolden(t *testing.T) {
	facs := branch.PaperPredictors()
	type traceKey struct {
		bench  string
		budget uint64
	}
	traces := map[traceKey]*interp.Trace{}
	for _, g := range paperGolden {
		t.Run(fmt.Sprintf("%s/budget=%d/layout=%d/warmup=%v", g.bench, g.budget, g.layout, g.warmup), func(t *testing.T) {
			spec, ok := progen.ByName(g.bench)
			if !ok {
				t.Fatalf("unknown benchmark %s", g.bench)
			}
			p := progen.MustGenerate(spec)
			key := traceKey{g.bench, g.budget}
			tr := traces[key]
			if tr == nil {
				var err error
				tr, err = interp.Run(p, 1, interp.StopRule{Budget: g.budget})
				if err != nil {
					t.Fatal(err)
				}
				traces[key] = tr
			}
			exe, err := toolchain.BuildLayout(tr.Program, g.layout, toolchain.CompileConfig{}, toolchain.LinkConfig{})
			if err != nil {
				t.Fatal(err)
			}
			rs, err := pintool.Run(tr, exe, facs, pintool.Config{Warmup: g.warmup})
			if err != nil {
				t.Fatal(err)
			}
			var cond [5]uint64
			for i, r := range rs {
				cond[i] = r.CondMispredicts
			}
			if cond != g.cond {
				t.Errorf("CondMispredicts %v, want %v", cond, g.cond)
			}
			for _, r := range rs {
				if r.IndirectMispreds != g.indirect {
					t.Errorf("%s: IndirectMispreds %d, want %d", r.Name, r.IndirectMispreds, g.indirect)
				}
			}
		})
	}
}
