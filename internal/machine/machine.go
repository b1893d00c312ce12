package machine

import (
	"errors"
	"fmt"
	"math"

	"interferometry/internal/heap"
	"interferometry/internal/interp"
	"interferometry/internal/isa"
	"interferometry/internal/toolchain"
	"interferometry/internal/uarch/branch"
	"interferometry/internal/uarch/cache"
	"interferometry/internal/xrand"
)

// Machine is a reusable simulator instance. It is not safe for concurrent
// use; create one per goroutine.
//
// A machine reuses all per-run scratch state (the built-in predictor, the
// heap allocators, the object-placement tables and the per-block load
// tables), so steady-state runs perform no heap allocation; every piece of
// reused state is restored to its power-on value before each run, making a
// reused machine bit-identical to a fresh one.
type Machine struct {
	cfg Config

	l1i, l1d, l2 *cache.Cache
	btb          *branch.BTB

	// builtin is the reusable Xeon-model predictor used when RunSpec does
	// not override it; it is Reset before every run.
	builtin branch.Predictor

	// loaded caches the per-block precomputation for one (program,
	// executable) pair; reloading happens automatically when the
	// executable changes.
	loadedExe *toolchain.Executable
	blocks    []loadedBlock
	// callees is the flat backing array for the blocks' calleeAddrs
	// sub-slices, reused across loads.
	callees []uint64

	// objBase/objSet are per-run object placement scratch, sized to the
	// program.
	objBase []uint64
	objSet  []bool

	// Reusable allocators for the two heap modes.
	bumpHeap *heap.Bump
	randHeap *heap.Randomized
}

// loadedBlock is the precomputed per-block state for one executable.
type loadedBlock struct {
	fetchFirst uint64 // first fetch-block address
	fetchN     int    // number of fetch blocks spanned
	baseCycles float64
	termAddr   uint64
	termKind   isa.TermKind
	// penaltyScale is the effective misprediction penalty multiplier for
	// the block's terminator (see Config.MispredictShadow).
	penaltyScale float64
	nMems        int
	nAllocs      int
	calleeAddrs  []uint64 // indirect-call target addresses by selector index
}

// New builds a machine with the given configuration.
func New(cfg Config) *Machine {
	return &Machine{
		cfg: cfg,
		l1i: cache.New(cfg.L1I),
		l1d: cache.New(cfg.L1D),
		l2:  cache.New(cfg.L2),
		btb: branch.NewBTB(cfg.BTBSets, cfg.BTBWays),
	}
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// RunSpec describes one measurement run.
type RunSpec struct {
	// Exe is the linked executable (code layout).
	Exe *toolchain.Executable
	// Trace is the recorded execution to replay.
	Trace *interp.Trace
	// HeapMode selects the allocator; HeapSeed seeds the randomized one.
	HeapMode heap.Mode
	HeapSeed uint64
	// NoiseSeed drives the system-noise model. Runs with the same
	// (layout, heap) but different noise seeds model repeated executions
	// of the same binary.
	NoiseSeed uint64
	// Predictor optionally overrides the machine's built-in Xeon-model
	// predictor, for predictor design studies (§3, §7). A
	// branch.Oracle implementation yields perfect prediction. Nil means
	// the built-in predictor.
	Predictor branch.Predictor
	// DisableNoise turns off the system-noise model, for the simulator
	// persona where "there is no variance in the simulation result"
	// (§7.2).
	DisableNoise bool
}

// Run replays the trace through the timing model and returns the counter
// readings.
func (m *Machine) Run(spec RunSpec) (Counters, error) {
	c, det, err := m.RunDeterministic(spec)
	if err != nil {
		return Counters{}, err
	}
	if !spec.DisableNoise {
		c.Cycles = m.NoisyCycles(spec, det)
	}
	return c, nil
}

// RunDeterministic replays the trace with the system-noise model off and
// returns the counters together with the raw (unrounded) cycle count. The
// raw count is what NoisyCycles needs to synthesize the noisy observation
// any NoiseSeed would have produced, without re-running the simulation:
// noise perturbs only the final cycle scalar, never the simulated
// microarchitectural state.
func (m *Machine) RunDeterministic(spec RunSpec) (Counters, float64, error) {
	if spec.Exe == nil || spec.Trace == nil {
		return Counters{}, 0, errors.New("machine: RunSpec needs Exe and Trace")
	}
	if spec.Trace.Program != spec.Exe.Program {
		return Counters{}, 0, errors.New("machine: trace and executable are from different programs")
	}
	if err := m.load(spec.Exe); err != nil {
		return Counters{}, 0, err
	}
	m.l1i.Flush()
	m.l1d.Flush()
	m.l2.Flush()
	m.btb.Reset()

	pred := spec.Predictor
	if pred == nil {
		if m.builtin == nil {
			m.builtin = branch.NewXeonE5440()
		}
		pred = m.builtin
	}
	pred.Reset()
	_, oracle := pred.(branch.Oracle)

	prog := spec.Exe.Program
	alloc := m.heapFor(spec)

	if n := len(prog.Objects); cap(m.objBase) < n {
		m.objBase = make([]uint64, n)
		m.objSet = make([]bool, n)
	} else {
		m.objBase = m.objBase[:n]
		m.objSet = m.objSet[:n]
	}
	var (
		cycles  float64
		c       Counters
		cfg     = &m.cfg
		cur     = spec.Trace.Cursor()
		objBase = m.objBase
		objSet  = m.objSet
	)
	for i := range prog.Objects {
		if !prog.Objects[i].Heap {
			objBase[i] = spec.Exe.GlobalBase[i]
			objSet[i] = true
		} else {
			objSet[i] = false
		}
	}

	for {
		bid, ok := cur.NextBlock()
		if !ok {
			break
		}
		lb := &m.blocks[bid]
		cycles += lb.baseCycles

		// Instruction fetch: one L1I access per fetch block spanned.
		fa := lb.fetchFirst
		for i := 0; i < lb.fetchN; i++ {
			if !m.l1i.Access(fa) {
				cycles += cfg.L1IMissPenalty
				if !m.l2.Access(fa) {
					cycles += cfg.L2MissPenalty * cfg.L2Overlap
				}
			}
			fa += cfg.FetchBytes
		}

		// Allocation events.
		for i := 0; i < lb.nAllocs; i++ {
			obj, kind := cur.NextAlloc()
			if kind == isa.AllocNew {
				objBase[obj] = alloc.Alloc(obj, prog.Objects[obj].Size)
				objSet[obj] = true
			} else {
				alloc.Free(obj)
			}
		}

		// Memory accesses.
		for i := 0; i < lb.nMems; i++ {
			obj, off := cur.NextMem()
			if !objSet[obj] {
				return Counters{}, 0, fmt.Errorf("machine: access to unplaced object %d in block %d", obj, bid)
			}
			addr := objBase[obj] + uint64(off)
			if !m.l1d.Access(addr) {
				cycles += cfg.L1DMissPenalty
				if !m.l2.Access(addr) {
					cycles += cfg.L2MissPenalty * cfg.L2Overlap
				}
				if cfg.NextLinePrefetch {
					// Install the sequentially next line into the L2
					// without charging cycles or counting the access.
					m.l2.Prefetch(addr + 64)
				}
			}
		}

		// Terminator.
		switch lb.termKind {
		case isa.TermCondBranch:
			taken := cur.NextTaken()
			c.CondBranches++
			if oracle {
				// Perfect prediction: no penalty, no update.
				break
			}
			predicted := pred.Predict(lb.termAddr)
			pred.Update(lb.termAddr, taken)
			if predicted != taken {
				c.CondMispredicts++
				cycles += cfg.MispredictPenalty * lb.penaltyScale
			}
		case isa.TermIndirectCall:
			sel := cur.NextIndirect()
			c.IndirectBranches++
			target := lb.calleeAddrs[sel]
			if !m.btb.Predict(lb.termAddr, target) {
				c.IndirectMispreds++
				cycles += cfg.BTBMissPenalty
			}
		}
	}

	c.Instructions = spec.Trace.Instrs
	c.BranchesRetired = c.CondBranches + c.IndirectBranches +
		spec.Trace.Calls + spec.Trace.Returns
	c.BranchMispredicts = c.CondMispredicts + c.IndirectMispreds
	c.L1IAccesses = m.l1i.Accesses()
	c.L1IMisses = m.l1i.Misses()
	c.L1DAccesses = m.l1d.Accesses()
	c.L1DMisses = m.l1d.Misses()
	c.L2Accesses = m.l2.Accesses()
	c.L2Misses = m.l2.Misses()

	c.Cycles = roundCycles(cycles)
	return c, cycles, nil
}

// NoisyCycles applies the system-noise model to a deterministic cycle
// count, exactly as Run would for the spec's NoiseSeed. Only observed
// quantities are perturbed, never the simulated microarchitectural state —
// which is why a single deterministic replay plus NoisyCycles per seed is
// bit-identical to re-running the full simulation per seed.
func (m *Machine) NoisyCycles(spec RunSpec, det float64) uint64 {
	var rng xrand.Rand
	rng.Reseed(xrand.Mix(spec.NoiseSeed, spec.Exe.Seed, spec.Trace.InputSeed, 0x6e6f6973))
	cycles := det
	cycles *= 1 + m.cfg.NoiseSigma*rng.NormFloat64()
	if rng.Bool(m.cfg.NoiseSpikeProb) {
		cycles += m.cfg.NoiseSpikeScale * sqrtF(cycles) * (1 + rng.Float64())
	}
	return roundCycles(cycles)
}

// roundCycles converts the accumulated cycle count to the counter reading.
func roundCycles(cycles float64) uint64 {
	if cycles < 0 {
		return 0
	}
	return uint64(cycles + 0.5)
}

// heapFor returns the run's allocator, reusing the machine's per-mode
// instance after restoring it to its freshly-constructed state.
func (m *Machine) heapFor(spec RunSpec) heap.Allocator {
	hcfg := heap.Config{Base: spec.Exe.DataLimit + 0x1000000}
	if spec.HeapMode == heap.ModeRandomized {
		if m.randHeap == nil {
			m.randHeap = heap.NewRandomized(spec.HeapSeed, hcfg)
		} else {
			m.randHeap.Reset(spec.HeapSeed, hcfg)
		}
		return m.randHeap
	}
	if m.bumpHeap == nil {
		m.bumpHeap = heap.NewBump(hcfg)
	} else {
		m.bumpHeap.Reset(hcfg)
	}
	return m.bumpHeap
}

// Invalidate drops the cached per-block precomputation, forcing the next
// run to reload its executable. The load cache keys on pointer identity,
// so an Executable mutated in place — e.g. a test rewriting BlockAddr —
// would otherwise be served stale block tables; callers that rebuild an
// executable in place must call Invalidate before the next run.
func (m *Machine) Invalidate() { m.loadedExe = nil }

// load precomputes per-block state for the executable. The block table and
// the callee-address backing array are reused across executables of the
// same (or smaller) program, so re-loading in a campaign's layout loop does
// not allocate after the first layout. The cache keys on pointer identity;
// see Invalidate for the in-place-mutation escape hatch.
func (m *Machine) load(exe *toolchain.Executable) error {
	if m.loadedExe == exe {
		return nil
	}
	prog := exe.Program
	fb := m.cfg.FetchBytes
	if fb == 0 {
		return errors.New("machine: FetchBytes is zero")
	}
	var blocks []loadedBlock
	if n := len(prog.Blocks); cap(m.blocks) >= n {
		blocks = m.blocks[:n]
	} else {
		blocks = make([]loadedBlock, n)
	}
	nCallees := 0
	for id := range prog.Blocks {
		if prog.Blocks[id].Term.Kind == isa.TermIndirectCall {
			nCallees += len(prog.Blocks[id].Term.Callees)
		}
	}
	callees := m.callees
	if cap(callees) < nCallees {
		callees = make([]uint64, 0, nCallees)
	} else {
		callees = callees[:0]
	}
	for id := range prog.Blocks {
		b := &prog.Blocks[id]
		addr := exe.BlockAddr[id]
		end := addr + uint64(b.Bytes)
		fetchFirst := addr &^ (fb - 1)
		lb := loadedBlock{
			fetchFirst:   fetchFirst,
			fetchN:       int(((end-1)&^(fb-1)-fetchFirst)/fb) + 1,
			baseCycles:   m.baseCycles(b),
			termAddr:     exe.TermAddr(isa.BlockID(id)),
			termKind:     b.Term.Kind,
			penaltyScale: 1 / (1 + m.cfg.MispredictShadow*float64(len(b.Mems))),
			nMems:        len(b.Mems),
			nAllocs:      len(b.Allocs),
		}
		if b.Term.Kind == isa.TermIndirectCall {
			start := len(callees)
			for _, callee := range b.Term.Callees {
				callees = append(callees, exe.ProcAddr[callee])
			}
			lb.calleeAddrs = callees[start:len(callees):len(callees)]
		}
		blocks[id] = lb
	}
	m.blocks = blocks
	m.callees = callees
	m.loadedExe = exe
	return nil
}

// baseCycles is the layout-independent cycle cost of one execution of the
// block: instruction-class costs plus memory and allocation base costs and
// the terminator.
func (m *Machine) baseCycles(b *isa.Block) float64 {
	return baseCyclesFor(&m.cfg, b)
}

func sqrtF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
