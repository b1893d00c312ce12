package branch

import (
	"testing"

	"interferometry/internal/xrand"
)

// TestLTAGEHistoryBookkeeping validates the multiword global history and
// the circularly-folded registers against a naive reference that keeps
// the outcome list explicitly. The folded-register update consumes the
// bit falling out of each component's window; extracting it from the
// shifted multiword history is exactly the kind of bookkeeping that
// silently corrupts a TAGE implementation.
func TestLTAGEHistoryBookkeeping(t *testing.T) {
	l := NewLTAGE(LTAGEConfig{NumTables: 6, LogTagged: 7, LogBase: 10, MaxHist: 130})
	rng := xrand.New(99)

	// Naive shadow state: outcomes[0] is the most recent.
	var outcomes []bool
	// One shadow folded register per component, driven from the explicit
	// outcome list.
	type shadowFold struct{ f folded }
	shadows := make([][3]shadowFold, len(l.comps))
	for i := range l.comps {
		c := &l.comps[i]
		shadows[i][0].f.init(c.histLen, c.logg)
		shadows[i][1].f.init(c.histLen, c.tagBits)
		shadows[i][2].f.init(c.histLen, c.tagBits-1)
		// The outgoing bit's fold position is precomputed, not divided
		// out per update.
		for k, f := range []*folded{&c.foldIdx, &c.foldTag1, &c.foldTag2} {
			if want := uint(c.histLen) % f.clen; f.shift != want {
				t.Fatalf("comp %d fold %d: shift %d, want olen %% clen = %d", i, k, f.shift, want)
			}
		}
	}

	for step := 0; step < 5000; step++ {
		pc := 0x400000 + uint64(rng.Intn(64))*24
		taken := rng.Bool(0.6)
		l.Predict(pc)
		l.Update(pc, taken)

		// Shadow update: new bit is the outcome; the old bit for window
		// length W is the one that was at age W-1 before this outcome was
		// prepended.
		for i := range l.comps {
			c := &l.comps[i]
			oldBit := uint64(0)
			if len(outcomes) >= c.histLen && c.histLen >= 1 && outcomes[c.histLen-1] {
				oldBit = 1
			}
			newBit := uint64(0)
			if taken {
				newBit = 1
			}
			shadows[i][0].f.update(newBit, oldBit)
			shadows[i][1].f.update(newBit, oldBit)
			shadows[i][2].f.update(newBit, oldBit)
		}
		outcomes = append([]bool{taken}, outcomes...)
		if len(outcomes) > l.histLen+8 {
			outcomes = outcomes[:l.histLen+8]
		}

		// Multiword history must agree with the explicit list.
		for age := 0; age < len(outcomes) && age < l.histLen; age++ {
			want := uint64(0)
			if outcomes[age] {
				want = 1
			}
			if got := l.histBit(age); got != want {
				t.Fatalf("step %d: history bit age %d = %d, want %d", step, age, got, want)
			}
		}
		// Folded registers must agree with the shadow folds.
		for i := range l.comps {
			c := &l.comps[i]
			if c.foldIdx.comp != shadows[i][0].f.comp {
				t.Fatalf("step %d comp %d: foldIdx %x, shadow %x",
					step, i, c.foldIdx.comp, shadows[i][0].f.comp)
			}
			if c.foldTag1.comp != shadows[i][1].f.comp {
				t.Fatalf("step %d comp %d: foldTag1 %x, shadow %x",
					step, i, c.foldTag1.comp, shadows[i][1].f.comp)
			}
			if c.foldTag2.comp != shadows[i][2].f.comp {
				t.Fatalf("step %d comp %d: foldTag2 %x, shadow %x",
					step, i, c.foldTag2.comp, shadows[i][2].f.comp)
			}
		}
	}
}

// TestFoldedMatchesDirectFold checks the folded register against a
// direct O(len) fold of an explicit window.
func TestFoldedMatchesDirectFold(t *testing.T) {
	const olen, clen = 21, 8
	var f folded
	f.init(olen, clen)
	rng := xrand.New(5)
	var window []uint64 // window[0] is newest

	direct := func() uint64 {
		// Reconstruct by replaying the recurrence over the full history
		// from empty state — the definition of the folded register.
		var g folded
		g.init(olen, clen)
		for k := len(window) - 1; k >= 0; k-- {
			oldBit := uint64(0)
			idx := olen - 1 // age of the dropped bit before this insert
			// The bit at age idx before inserting window[k] is
			// window[k+idx+1]... relative to final indexing: when
			// inserting the bit that now has age k, the dropped bit now
			// has age k+olen.
			if k+olen < len(window) {
				oldBit = window[k+olen]
			}
			_ = idx
			g.update(window[k], oldBit)
		}
		return g.comp
	}

	for step := 0; step < 2000; step++ {
		bit := uint64(0)
		if rng.Bool(0.5) {
			bit = 1
		}
		oldBit := uint64(0)
		if len(window) >= olen {
			oldBit = window[olen-1]
		}
		f.update(bit, oldBit)
		window = append([]uint64{bit}, window...)
		if len(window) > 4*olen {
			window = window[:4*olen]
		}
		if f.comp != direct() {
			t.Fatalf("step %d: folded %x, direct %x", step, f.comp, direct())
		}
	}
}
