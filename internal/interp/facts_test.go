package interp_test

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"interferometry/internal/interp"
	"interferometry/internal/isa"
	"interferometry/internal/progen"
	"interferometry/internal/testprog"
)

// naiveFacts recomputes Facts with maps, straight from the definitions.
func naiveFacts(t *interp.Trace) *interp.Facts {
	p := t.Program
	f := &interp.Facts{MemRepeat: make([]uint64, (len(t.MemObj)+63)/64)}
	execs := map[isa.BlockID]uint64{}
	inst := map[isa.ObjectID]uint64{}
	instOf := func(obj isa.ObjectID) uint64 {
		if i, ok := inst[obj]; ok {
			return i
		}
		return uint64(obj)
	}
	seen := map[[2]uint64]bool{}
	cur := t.Cursor()
	mem := 0
	for alloc := 0; ; {
		bid, ok := cur.NextBlock()
		if !ok {
			break
		}
		if execs[bid] == 0 {
			f.Blocks = append(f.Blocks, bid)
		}
		execs[bid]++
		for range p.Blocks[bid].Allocs {
			obj, kind := cur.NextAlloc()
			if kind == isa.AllocNew {
				inst[obj] = uint64(len(p.Objects) + alloc)
			}
			alloc++
		}
		for range p.Blocks[bid].Mems {
			obj, off := cur.NextMem()
			key := [2]uint64{instOf(obj), uint64(off)}
			if seen[key] {
				f.MemRepeat[mem/64] |= 1 << (mem % 64)
				f.MemRepeats++
			} else {
				seen[key] = true
				f.Pairs = append(f.Pairs, interp.Pair(key[0]<<32|key[1]))
			}
			mem++
		}
	}
	for _, bid := range f.Blocks {
		f.Repeats = append(f.Repeats, execs[bid]-1)
	}
	sort.Slice(f.Pairs, func(i, j int) bool { return f.Pairs[i] < f.Pairs[j] })
	return f
}

// TestFactsMatchDefinition pins Trace.Facts against the map-based
// definition on a heap-churning test program and shipped presets, and
// checks that concurrent callers share one computation.
func TestFactsMatchDefinition(t *testing.T) {
	progs := []*isa.Program{testprog.Memory(64), testprog.Branchy()}
	for _, name := range []string{"400.perlbench", "429.mcf"} {
		spec, ok := progen.ByName(name)
		if !ok {
			t.Fatalf("missing preset %s", name)
		}
		progs = append(progs, progen.MustGenerate(spec))
	}
	for _, p := range progs {
		tr, err := interp.Run(p, 1, interp.StopRule{Budget: 50000})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*interp.Facts, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = tr.Facts()
			}()
		}
		wg.Wait()
		for i := range got {
			if got[i] != got[0] {
				t.Fatalf("%s: concurrent Facts calls computed separate tables", p.Name)
			}
		}
		want := naiveFacts(tr)
		if !reflect.DeepEqual(got[0], want) {
			t.Fatalf("%s: Facts differ from the definition:\ngot  %d blocks, %d repeats, %d pairs\nwant %d blocks, %d repeats, %d pairs",
				p.Name, len(got[0].Blocks), got[0].MemRepeats, len(got[0].Pairs), len(want.Blocks), want.MemRepeats, len(want.Pairs))
		}
		if len(tr.AllocObj) > 0 && len(want.Pairs) > 0 && want.Pairs[len(want.Pairs)-1].Instance() < uint64(len(p.Objects)) {
			t.Errorf("%s: allocates but no pair names an allocated instance", p.Name)
		}
	}
}

// BenchmarkFacts measures the once-per-trace fact computation on the
// 200k-instruction perlbench trace, next to BenchmarkTraceGeneration's
// cost of producing the trace itself.
func BenchmarkFacts(b *testing.B) {
	spec, _ := progen.ByName("400.perlbench")
	p := progen.MustGenerate(spec)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr, err := interp.Run(p, 1, interp.StopRule{Budget: 200000})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		tr.Facts()
	}
}
