package branch_test

import (
	"fmt"
	"testing"

	"interferometry/internal/uarch/branch"
	"interferometry/internal/xrand"
)

// ltageStream is a deterministic branch stream mixing constant-trip loop
// branches (the loop predictor's case), history-correlated branches (the
// tagged tables' case) and coin flips, which mispredict about half the
// time and so drive allocation on most updates.
type ltageStream struct {
	pc    []uint64
	taken []bool
}

func newLTAGEStream(n int, seed uint64) ltageStream {
	r := xrand.New(seed)
	s := ltageStream{pc: make([]uint64, n), taken: make([]bool, n)}
	var trips [16]int
	var last bool
	for i := 0; i < n; i++ {
		site := r.Intn(240)
		pc := 0x400000 + uint64(site)*44 + uint64(site>>5)<<14
		var taken bool
		switch site % 3 {
		case 0:
			k := site / 3 % len(trips)
			trips[k]++
			taken = trips[k]%(3+k) != 0
		case 1:
			taken = last != (site%7 == 1)
		default:
			taken = r.Bool(0.5)
		}
		s.pc[i], s.taken[i] = pc, taken
		last = taken
	}
	return s
}

// TestLTAGEGoldenStreams pins the exact prediction sequence of every
// L-TAGE shape the repo builds (the Figure 7 default, the ConfigSpace
// TAGE family, a small odd-history shape) on a mispredict-heavy stream
// long enough to cross the periodic useful-bit reset. The hashes were
// recorded from the reference kernel; an optimized kernel must
// reproduce every prediction bit.
func TestLTAGEGoldenStreams(t *testing.T) {
	s := newLTAGEStream(270000, 11)
	for _, tc := range []struct {
		cfg         branch.LTAGEConfig
		mispredicts int
		hash        uint64
	}{
		{branch.LTAGEConfig{}, 64188, 0x12b4962308473bdd},
		{branch.LTAGEConfig{NumTables: 4, LogTagged: 7, LogBase: 12}, 87255, 0xcc324b49c7579cf8},
		{branch.LTAGEConfig{NumTables: 6, LogTagged: 8, LogBase: 12}, 81602, 0x996aa3c1c33c3863},
		{branch.LTAGEConfig{NumTables: 8, LogTagged: 9, LogBase: 12}, 73449, 0x209454ed4ae79b46},
		{branch.LTAGEConfig{NumTables: 12, LogTagged: 10, LogBase: 12}, 64188, 0x12b4962308473bdd},
		{branch.LTAGEConfig{NumTables: 12, LogTagged: 11, LogBase: 12}, 62679, 0x456de9d548ad21e0},
		{branch.LTAGEConfig{NumTables: 6, LogTagged: 7, LogBase: 10, MaxHist: 130}, 87283, 0xca8991565073cb3a},
	} {
		t.Run(fmt.Sprintf("%+v", tc.cfg), func(t *testing.T) {
			p := branch.NewLTAGE(tc.cfg)
			miss := 0
			h := uint64(14695981039346656037) // FNV-1a over prediction bits
			for i, pc := range s.pc {
				pred := p.Predict(pc)
				if pred != s.taken[i] {
					miss++
				}
				b := uint64(0)
				if pred {
					b = 1
				}
				h = (h ^ b) * 1099511628211
				p.Update(pc, s.taken[i])
			}
			if miss != tc.mispredicts || h != tc.hash {
				t.Errorf("mispredicts %d hash %#x, want %d %#x", miss, h, tc.mispredicts, tc.hash)
			}
		})
	}
}

// TestLTAGEZeroAlloc: the predictor's hot path performs no heap
// allocation per branch, including on TAGE mispredicts, which allocate
// table entries. Each run replays the whole stream: AllocsPerRun
// truncates to whole allocations per run, so a per-branch run would hide
// an allocation that only some branches make.
func TestLTAGEZeroAlloc(t *testing.T) {
	s := newLTAGEStream(4096, 3)
	p := branch.NewLTAGEDefault()
	allocs := testing.AllocsPerRun(10, func() {
		for i, pc := range s.pc {
			p.Predict(pc)
			p.Update(pc, s.taken[i])
		}
	})
	if allocs != 0 {
		t.Fatalf("Predict+Update: %v allocs per %d branches, want 0", allocs, len(s.pc))
	}
}
