package core

import (
	"fmt"

	"interferometry/internal/heap"
	"interferometry/internal/obs"
	"interferometry/internal/pmc"
	"interferometry/internal/toolchain"
	"interferometry/internal/xrand"
)

// Unit is one subject of the per-layout pipeline: a campaign-local
// layout index, whose layout is reordered from a seed the campaign
// derives, or an explicit search genome (toolchain.Genome). Everything
// downstream of the build — the counter harness, the plausibility
// check, the batched replay, retries, fault injection — is shared; Unit
// owns every decision the two kinds make differently: the layout seed,
// the key of the heap and noise streams, the plausibility check's RunID,
// the executable check's layout index, the span identity, the error
// prefix and the build seam.
//
// A genome's stable identity is its fingerprint. It plays the role the
// layout seed plays for indexed layouts: it keys the fault streams, the
// heap and noise seed derivations, the artifact cache, and the
// provenance check on results streamed back from remote workers.
// Fingerprints are forced even and layout seeds forced odd, so the two
// keyspaces never collide in a shared cache or fault plan.
type Unit struct {
	index  int               // campaign-local layout index; -1 for a genome
	genome *toolchain.Genome // nil for an indexed layout
	fp     uint64            // the genome's fingerprint
}

// LayoutUnit is campaign-local layout i.
func LayoutUnit(i int) Unit { return Unit{index: i} }

// GenomeUnit is the explicit layout permutation g.
func GenomeUnit(g toolchain.Genome) Unit {
	return Unit{index: -1, genome: &g, fp: g.Fingerprint()}
}

// String names the unit in errors: "layout 3" or "genome <fingerprint>".
func (u Unit) String() string {
	if u.genome != nil {
		return fmt.Sprintf("genome %016x", u.fp)
	}
	return fmt.Sprintf("layout %d", u.index)
}

// key is the unit's stream key: the campaign-global layout number of an
// indexed layout, the fingerprint of a genome.
func (u Unit) key(c *CampaignConfig) uint64 {
	if u.genome != nil {
		return u.fp
	}
	return uint64(c.FirstLayout + u.index)
}

// seed is the layout seed the unit's executable and observation carry:
// the derived layout seed, or the genome's fingerprint.
func (u Unit) seed(c *CampaignConfig) uint64 {
	if u.genome != nil {
		return u.fp
	}
	return c.layoutSeed(u.index)
}

// heapSeed is the unit's heap-randomizer seed; zero (no randomization)
// unless the campaign randomizes the heap.
func (u Unit) heapSeed(c *CampaignConfig) uint64 {
	if c.HeapMode != heap.ModeRandomized {
		return 0
	}
	return c.streamSeed(seedHeap, u.key(c))
}

// Per-unit stream tags: the heap-randomizer and noise streams.
const (
	seedHeap  uint64 = 0x68656170 // "heap"
	seedNoise uint64 = 0x6e6f6973 // "nois"
)

// streamSeed derives a per-unit stream seed keyed by a layout number or
// genome fingerprint. Heap seed zero is the sentinel for "no
// randomization" in recorded observations (ModeBump), so the derived
// streams must never produce it: a Mix output of zero is remapped to the
// stream tag, which keeps the streams disjoint from each mode's zero
// sentinel.
func (c *CampaignConfig) streamSeed(tag, key uint64) uint64 {
	if s := xrand.Mix(c.BaseSeed, tag, key); s != 0 {
		return s
	}
	return tag
}

// layoutNumber is the layout index the executable check and the run ID
// record: campaign-global for an indexed layout, -1 for a genome, which
// has none.
func (u Unit) layoutNumber(c *CampaignConfig) int {
	if u.genome != nil {
		return -1
	}
	return c.FirstLayout + u.index
}

// runID identifies the unit's measurement to the plausibility check.
func (u Unit) runID(c *CampaignConfig) pmc.RunID {
	return pmc.RunID{
		Layout:     u.layoutNumber(c),
		LayoutSeed: u.seed(c),
		HeapSeed:   u.heapSeed(c),
		NoiseSeed:  c.streamSeed(seedNoise, u.key(c)),
	}
}

// spanID is the deterministic identity of the unit's layout span: keyed
// under the campaign span for an indexed layout, the fingerprint itself
// for a genome. It is zero for an unobserved campaign.
func (u Unit) spanID(c *CampaignConfig, co *campaignObs) uint64 {
	if co == nil {
		return 0
	}
	if u.genome != nil {
		return u.fp
	}
	return obs.SpanID(co.campID, tagLayout, u.key(c))
}

// builder is the unit's build seam, called with u.seed: the campaign's
// seed-keyed builder for an indexed layout; for a genome, the
// permutation builder behind an adapter the fault injector wraps per
// call, so every genome draws its own deterministic faults keyed by its
// fingerprint exactly as every layout seed does.
func (u Unit) builder(r *LayoutRunner) buildSeam {
	if u.genome == nil {
		return r.build
	}
	var b buildSeam = genomeBuild{gb: r.gb, g: u.genome}
	if r.cfg.Faults != nil {
		b = r.cfg.Faults.WrapBuilder(b)
	}
	return b
}

// genomeSeam is the build seam of the search path: an explicit
// permutation in, an executable out. Builder and CachedBuilder satisfy
// it.
type genomeSeam interface {
	BuildGenome(g toolchain.Genome) (*toolchain.Executable, error)
}

// genomeBuild presents one genome build as a seed-keyed build seam.
type genomeBuild struct {
	gb genomeSeam
	g  *toolchain.Genome
}

func (b genomeBuild) Build(uint64) (*toolchain.Executable, error) {
	return b.gb.BuildGenome(*b.g)
}
