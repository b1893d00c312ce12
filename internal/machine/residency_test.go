package machine_test

import (
	"fmt"
	"math"
	"testing"

	"interferometry/internal/heap"
	"interferometry/internal/interp"
	"interferometry/internal/isa"
	"interferometry/internal/machine"
	"interferometry/internal/progen"
	"interferometry/internal/toolchain"
)

// checkLanes requires every lane of a batch run to be bit-identical to
// Machine.RunDeterministic on the same spec: equal Counters and equal
// raw cycle bits.
func checkLanes(t *testing.T, seq *machine.Machine, specs []machine.RunSpec, gotC []machine.Counters, gotD []float64, what string) {
	t.Helper()
	for ki := range specs {
		wantC, wantD, err := seq.RunDeterministic(specs[ki])
		if err != nil {
			t.Fatalf("%s lane %d sequential: %v", what, ki, err)
		}
		if gotC[ki] != wantC {
			t.Fatalf("%s lane %d counters diverged:\nbatch %+v\nseq   %+v", what, ki, gotC[ki], wantC)
		}
		if math.Float64bits(gotD[ki]) != math.Float64bits(wantD) {
			t.Fatalf("%s lane %d det cycles diverged: batch %v, seq %v", what, ki, gotD[ki], wantD)
		}
	}
}

// TestBatchResidencyMatrix pins the resident walk paths against the
// scalar oracle on shipped presets, both heap modes and three widths,
// and requires that every combination of L1I and L1D residency was
// actually walked — so the test cannot pass with a shortcut that never
// engages. On the 200k-instruction traces, 400.perlbench under the bump
// heap is resident in both banks, under the randomized heap (like
// 429.mcf) in L1I only, 445.gobmk in L1D only and 403.gcc in neither.
func TestBatchResidencyMatrix(t *testing.T) {
	cfg := machine.XeonE5440()
	seq := machine.New(cfg)
	batch, err := machine.NewBatch(cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]bool]bool{}
	for _, name := range []string{"400.perlbench", "429.mcf", "403.gcc", "445.gobmk", "470.lbm"} {
		spec, ok := progen.ByName(name)
		if !ok {
			t.Fatalf("missing preset %s", name)
		}
		prog := progen.MustGenerate(spec)
		tr, err := interp.Run(prog, 1, interp.StopRule{Budget: 200000})
		if err != nil {
			t.Fatal(err)
		}
		exes := make([]*toolchain.Executable, 32)
		for i := range exes {
			if exes[i], err = toolchain.BuildLayout(prog, uint64(i+1), toolchain.CompileConfig{}, toolchain.LinkConfig{}); err != nil {
				t.Fatal(err)
			}
		}
		for _, mode := range []heap.Mode{heap.ModeBump, heap.ModeRandomized} {
			for _, k := range []int{1, 7, 32} {
				specs := make([]machine.RunSpec, k)
				for ki := range specs {
					// Rotate the layouts per width so the widths walk
					// different lane sets.
					specs[ki] = machine.RunSpec{Exe: exes[(ki+k)%len(exes)], Trace: tr, HeapMode: mode, HeapSeed: uint64(ki+k) * 7}
				}
				what := fmt.Sprintf("%s/%s/k=%d", name, mode, k)
				gotC, gotD, err := batch.Run(specs)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				i, d := batch.Resident()
				seen[[2]bool{i, d}] = true
				checkLanes(t, seq, specs, gotC, gotD, what)
			}
		}
	}
	for _, c := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
		if !seen[c] {
			t.Errorf("no run walked with L1I resident=%v, L1D resident=%v", c[0], c[1])
		}
	}
}

// boundaryProgram loops over codeSets blocks of one L1I way each (4096
// bytes: every set of the 64-set, 64-byte-line L1I once) and, in its
// first block, streams over dataSets global-data lines 4096 bytes apart,
// which all fall in one L1D set. With a single procedure at the
// page-aligned text base and one line-aligned global, each L1I set sees
// exactly codeSets distinct lines and L1D set 0 exactly dataSets.
func boundaryProgram(codeSets, dataSets int) *isa.Program {
	var alu [isa.NumInstrClasses]uint16
	alu[isa.ClassIntALU] = 1
	p := &isa.Program{
		Name:    fmt.Sprintf("boundary-%d-%d", codeSets, dataSets),
		Seed:    1,
		Objects: []isa.ObjectMeta{{Size: uint64(dataSets) * 4096}},
	}
	var ids []isa.BlockID
	for i := 0; i < codeSets; i++ {
		b := isa.Block{ClassCounts: alu, Bytes: 4096, Term: isa.Terminator{Kind: isa.TermFallthrough}}
		if i == 0 {
			b.Mems = []isa.MemOp{{Kind: isa.MemLoad, Pattern: isa.Stream{Object: 0, Stride: 4096, Size: uint64(dataSets) * 4096}}}
		}
		if i == codeSets-1 {
			// The loop branch. The block ends one line short, so the exit
			// block's line lands in set 63, which the loop's last block
			// leaves free.
			b.Bytes -= 64
			b.Term = isa.Terminator{Kind: isa.TermCondBranch, Target: 0, Behavior: isa.Loop{Trip: 1 << 20}}
		}
		p.Blocks = append(p.Blocks, b)
		ids = append(ids, isa.BlockID(i))
	}
	p.Blocks = append(p.Blocks, isa.Block{ClassCounts: alu, Bytes: 16, Term: isa.Terminator{Kind: isa.TermReturn}})
	ids = append(ids, isa.BlockID(codeSets))
	p.Procs = []isa.Procedure{{Name: "main", Blocks: ids}}
	return p
}

// TestBatchResidencyBoundary pins the proofs' Ways comparison at the
// boundary. A set with exactly Ways distinct lines never evicts, so its
// bank walks the resident path; one more line makes LRU evict on every
// pass, and a wrongly taken shortcut would then count the evicted
// repeats as hits — far fewer misses than the scalar oracle sees.
func TestBatchResidencyBoundary(t *testing.T) {
	cfg := machine.XeonE5440()
	ways := cfg.L1D.Ways
	if cfg.L1I.Ways != ways || cfg.L1I.Sets() != 64 || cfg.L1D.Sets() != 64 || cfg.L1I.LineBytes != 64 || cfg.L1D.LineBytes != 64 {
		t.Fatal("boundary program assumes 64-set, 64-byte-line L1s of equal associativity")
	}
	seq := machine.New(cfg)
	batch, err := machine.NewBatch(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		code, data int
		wantI      bool
		wantD      bool
	}{
		{ways, ways, true, true},
		{ways + 1, ways, false, true},
		{ways, ways + 1, true, false},
	} {
		prog := boundaryProgram(tc.code, tc.data)
		tr, err := interp.Run(prog, 1, interp.StopRule{Budget: 4000})
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]machine.RunSpec, 3)
		for ki := range specs {
			exe, err := toolchain.BuildLayout(prog, uint64(ki+1), toolchain.CompileConfig{}, toolchain.LinkConfig{})
			if err != nil {
				t.Fatal(err)
			}
			specs[ki] = machine.RunSpec{Exe: exe, Trace: tr}
		}
		what := fmt.Sprintf("code %d, data %d lines per set", tc.code, tc.data)
		gotC, gotD, err := batch.Run(specs)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if i, d := batch.Resident(); i != tc.wantI || d != tc.wantD {
			t.Fatalf("%s: resident L1I=%v L1D=%v, want %v %v", what, i, d, tc.wantI, tc.wantD)
		}
		checkLanes(t, seq, specs, gotC, gotD, what)
		// Non-vacuity: past the boundary every pass evicts, so the oracle
		// misses on far more than the first touch of each line.
		c := gotC[0]
		if !tc.wantI && c.L1IMisses < 4*uint64(tc.code*64) {
			t.Errorf("%s: only %d L1I misses; the program does not thrash its sets", what, c.L1IMisses)
		}
		if !tc.wantD && c.L1DMisses < 4*uint64(tc.data) {
			t.Errorf("%s: only %d L1D misses; the program does not thrash its set", what, c.L1DMisses)
		}
	}
}
