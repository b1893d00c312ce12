package heap_test

import (
	"testing"
	"testing/quick"

	"interferometry/internal/heap"
	"interferometry/internal/isa"
	"interferometry/internal/xrand"
)

func TestRandomizedDeterministic(t *testing.T) {
	a := heap.NewRandomized(7, heap.Config{})
	b := heap.NewRandomized(7, heap.Config{})
	for i := 0; i < 200; i++ {
		obj := isa.ObjectID(i)
		if a.Alloc(obj, 64) != b.Alloc(obj, 64) {
			t.Fatalf("same seed diverged at allocation %d", i)
		}
	}
}

func TestRandomizedSeedsDiffer(t *testing.T) {
	a := heap.NewRandomized(1, heap.Config{})
	b := heap.NewRandomized(2, heap.Config{})
	same := 0
	const n = 100
	for i := 0; i < n; i++ {
		obj := isa.ObjectID(i)
		if a.Alloc(obj, 64) == b.Alloc(obj, 64) {
			same++
		}
	}
	if same > n/2 {
		t.Fatalf("different seeds matched on %d/%d placements", same, n)
	}
}

func TestRandomizedNoOverlapProperty(t *testing.T) {
	// Live allocations must never overlap, across arbitrary interleavings
	// of alloc/free/churn driven by quick.
	check := func(seed uint64, script []byte) bool {
		a := heap.NewRandomized(seed, heap.Config{})
		rng := xrand.New(seed)
		type span struct{ lo, hi uint64 }
		live := map[isa.ObjectID]span{}
		for _, cmd := range script {
			obj := isa.ObjectID(cmd % 16)
			switch {
			case cmd%3 != 0: // alloc or churn
				size := uint64(8 + rng.Intn(5000))
				base := a.Alloc(obj, size)
				live[obj] = span{base, base + size}
			default:
				a.Free(obj)
				delete(live, obj)
			}
			for o1, s1 := range live {
				for o2, s2 := range live {
					if o1 != o2 && s1.lo < s2.hi && s2.lo < s1.hi {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedChurnMovesObjects(t *testing.T) {
	a := heap.NewRandomized(3, heap.Config{})
	first := a.Alloc(1, 128)
	moved := false
	for i := 0; i < 20; i++ {
		if a.Alloc(1, 128) != first {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("randomized churn never moved the object")
	}
}

func TestRandomizedReuse(t *testing.T) {
	// After freeing, addresses must be reusable: alloc/free churn of a
	// single object must not consume unbounded address space.
	a := heap.NewRandomized(4, heap.Config{})
	var maxAddr uint64
	for i := 0; i < 10000; i++ {
		base := a.Alloc(1, 64)
		if base > maxAddr {
			maxAddr = base
		}
		a.Free(1)
	}
	// One live 64B object needs a handful of slots; with reuse the
	// high-water mark stays tiny relative to 10000 * 64.
	if spread := maxAddr - 0x20000000; spread > 1<<20 {
		t.Fatalf("address space grew to %d bytes for one live object", spread)
	}
}

// TestRandomizedResetReusesRegionsExactly pins Reset's two promises: a
// reset allocator places exactly like a fresh one, and replaying the
// same allocations after a Reset allocates nothing, even when several
// size classes of very different region sizes grew before the Reset.
func TestRandomizedResetReusesRegionsExactly(t *testing.T) {
	sizes := []uint64{16, 4096, 48, 9000, 200, 16, 70000, 32}
	run := func(a *heap.Randomized, bases []uint64) {
		for i := range bases {
			obj := isa.ObjectID(i)
			bases[i] = a.Alloc(obj, sizes[i%len(sizes)])
			if i%3 == 2 {
				a.Free(isa.ObjectID(i - 1))
			}
		}
	}
	want := make([]uint64, 300)
	run(heap.NewRandomized(11, heap.Config{}), want)

	a := heap.NewRandomized(5, heap.Config{})
	got := make([]uint64, len(want))
	run(a, got) // grow every class under another seed first
	a.Reset(11, heap.Config{})
	run(a, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("allocation %d: reset allocator placed %#x, fresh %#x", i, got[i], want[i])
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		a.Reset(11, heap.Config{})
		run(a, got)
	}); n != 0 {
		t.Errorf("replay after Reset allocates %v per run, want 0", n)
	}
}

func TestRandomizedBaseAndLive(t *testing.T) {
	a := heap.NewRandomized(5, heap.Config{})
	if _, ok := a.Base(9); ok {
		t.Fatal("Base of never-allocated object should be not-ok")
	}
	if a.Live(9) {
		t.Fatal("never-allocated object reported live")
	}
	base := a.Alloc(9, 32)
	if got, ok := a.Base(9); !ok || got != base {
		t.Fatalf("Base = %v,%v", got, ok)
	}
	if !a.Live(9) {
		t.Fatal("allocated object not live")
	}
	a.Free(9)
	if a.Live(9) {
		t.Fatal("freed object still live")
	}
	if got, ok := a.Base(9); !ok || got != base {
		t.Fatal("freed object should keep reporting its last base")
	}
	a.Free(9) // double free is a no-op
}

func TestRandomizedAlignment(t *testing.T) {
	a := heap.NewRandomized(6, heap.Config{})
	for i, size := range []uint64{1, 16, 17, 100, 4096} {
		base := a.Alloc(isa.ObjectID(i), size)
		slot := uint64(16)
		for slot < size {
			slot <<= 1
		}
		if base%slot != 0 {
			t.Errorf("size %d placed at %#x, not %d-aligned", size, base, slot)
		}
	}
	// Objects above a page get page alignment with a randomized page
	// phase, like DieHard's mmap'd large objects.
	if base := a.Alloc(99, 5000); base%4096 != 0 {
		t.Errorf("large object placed at %#x, not page-aligned", base)
	}
}

func TestRandomizedLargeObjectPhaseVaries(t *testing.T) {
	// The page phase of large objects (their address modulo a 64KB cache
	// period) must differ across seeds — this is what lets heap
	// randomization perturb L2 conflict misses.
	const size = 192 * 1024
	phases := map[uint64]bool{}
	for seed := uint64(1); seed <= 24; seed++ {
		a := heap.NewRandomized(seed, heap.Config{})
		phases[a.Alloc(1, size)%(64*1024)] = true
	}
	if len(phases) < 4 {
		t.Fatalf("only %d distinct cache phases across 24 seeds", len(phases))
	}
}

func TestRandomizedPlacementIsSpreadOut(t *testing.T) {
	// With many same-class allocations, placements should not be
	// sequential: successive addresses should jump around.
	a := heap.NewRandomized(8, heap.Config{})
	var prev uint64
	monotone := 0
	const n = 100
	for i := 0; i < n; i++ {
		base := a.Alloc(isa.ObjectID(i), 64)
		if i > 0 && base > prev {
			monotone++
		}
		prev = base
	}
	if monotone > n*3/4 {
		t.Fatalf("placements look sequential (%d/%d increasing)", monotone, n)
	}
}

func TestBumpSequential(t *testing.T) {
	b := heap.NewBump(heap.Config{})
	a1 := b.Alloc(1, 100)
	a2 := b.Alloc(2, 100)
	if a2 <= a1 {
		t.Fatal("bump allocator not monotone")
	}
	if a1%16 != 0 || a2%16 != 0 {
		t.Fatal("bump allocations not 16-aligned")
	}
	if a2-a1 < 100 {
		t.Fatal("bump allocations overlap")
	}
}

func TestBumpIgnoresSeedEquivalent(t *testing.T) {
	// Two bump allocators give identical placements regardless of any
	// notion of seed — the layout-insensitive baseline.
	b1 := heap.NewBump(heap.Config{})
	b2 := heap.NewBump(heap.Config{})
	for i := 0; i < 50; i++ {
		if b1.Alloc(isa.ObjectID(i), uint64(24+i)) != b2.Alloc(isa.ObjectID(i), uint64(24+i)) {
			t.Fatal("bump allocators disagree")
		}
	}
}

func TestBumpBaseLiveFree(t *testing.T) {
	b := heap.NewBump(heap.Config{})
	if _, ok := b.Base(1); ok {
		t.Fatal("unallocated Base should be not-ok")
	}
	base := b.Alloc(1, 64)
	if got, _ := b.Base(1); got != base {
		t.Fatal("Base mismatch")
	}
	if !b.Live(1) {
		t.Fatal("not live after alloc")
	}
	b.Free(1)
	if b.Live(1) {
		t.Fatal("live after free")
	}
}

func TestNewByMode(t *testing.T) {
	if _, ok := heap.New(heap.ModeRandomized, 1, heap.Config{}).(*heap.Randomized); !ok {
		t.Fatal("ModeRandomized should build a Randomized allocator")
	}
	if _, ok := heap.New(heap.ModeBump, 1, heap.Config{}).(*heap.Bump); !ok {
		t.Fatal("ModeBump should build a Bump allocator")
	}
}

func TestModeString(t *testing.T) {
	if heap.ModeBump.String() != "bump" || heap.ModeRandomized.String() != "randomized" {
		t.Fatal("mode strings wrong")
	}
	if heap.Mode(9).String() == "" {
		t.Fatal("unknown mode should render")
	}
}

func TestConfigBaseRespected(t *testing.T) {
	const base = 0x5000000
	a := heap.NewRandomized(1, heap.Config{Base: base})
	if got := a.Alloc(1, 64); got < base {
		t.Fatalf("allocation %#x below configured base %#x", got, base)
	}
	b := heap.NewBump(heap.Config{Base: base})
	if got := b.Alloc(1, 64); got < base {
		t.Fatalf("bump allocation %#x below configured base %#x", got, base)
	}
}
