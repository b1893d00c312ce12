package toolchain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"interferometry/internal/isa"
	"interferometry/internal/xrand"
)

// A Genome is an explicit point in the layout space the seeded Reorder
// pipeline samples implicitly: a permutation of the compilation units
// (the link line) plus a permutation of each unit's procedures. Where a
// layout seed can only *sample* the space, a genome can *move* through
// it — mutation and crossover perturb one permutation at a time — which
// is what turns the measurement infrastructure into layout optimization
// (ROADMAP item 2). Applying a genome through the ordinary Link path
// yields an Executable indistinguishable from a seed-built one, so the
// whole measurement stack (machine model, batched replay, caches) works
// on genomes unchanged.
type Genome struct {
	// Units is the link order: a permutation of the compile-time unit
	// indices.
	Units []int
	// Procs[u] is the procedure order of compile-time unit u, indexed by
	// the unit's original (compile-time) position, not its link
	// position: a permutation of that unit's procedures.
	Procs [][]isa.ProcID
}

// IdentityGenome is the unperturbed layout: units and procedures in
// compile order, the genome analog of Reorder seed 0.
func IdentityGenome(units []Unit) Genome {
	g := Genome{
		Units: make([]int, len(units)),
		Procs: make([][]isa.ProcID, len(units)),
	}
	for i := range units {
		g.Units[i] = i
		g.Procs[i] = append([]isa.ProcID(nil), units[i].Procs...)
	}
	return g
}

// GenomeOf derives the genome the seeded Reorder produces: the same
// per-unit procedure shuffles (tag 0x70) and unit shuffle (tag 0x75)
// applied to explicit permutations. ApplyGenome(units, GenomeOf(units,
// seed)) lays out exactly like Reorder(units, seed), which is how a
// search's generation-zero population embeds the seeded layout space.
func GenomeOf(units []Unit, seed uint64) Genome {
	g := IdentityGenome(units)
	if seed == 0 {
		return g
	}
	rng := xrand.New(seed)
	for i := range g.Procs {
		pr := rng.Derive(tagProcShuffle, uint64(i))
		pr.Shuffle(len(g.Procs[i]), func(a, b int) {
			g.Procs[i][a], g.Procs[i][b] = g.Procs[i][b], g.Procs[i][a]
		})
	}
	ur := rng.Derive(tagUnitShuffle)
	ur.Shuffle(len(g.Units), func(a, b int) { g.Units[a], g.Units[b] = g.Units[b], g.Units[a] })
	return g
}

// Clone deep-copies the genome.
func (g Genome) Clone() Genome {
	out := Genome{
		Units: append([]int(nil), g.Units...),
		Procs: make([][]isa.ProcID, len(g.Procs)),
	}
	for i := range g.Procs {
		out.Procs[i] = append([]isa.ProcID(nil), g.Procs[i]...)
	}
	return out
}

// Validate checks the genome against the compile-time units: the unit
// order must permute [0,len(units)) and each per-unit procedure order
// must permute exactly that unit's procedures. A genome that validates
// always links (ApplyGenome + Link cannot fail structurally).
func (g Genome) Validate(units []Unit) error {
	if len(g.Units) != len(units) || len(g.Procs) != len(units) {
		return fmt.Errorf("toolchain: genome shape %d/%d units, program has %d", len(g.Units), len(g.Procs), len(units))
	}
	seen := make([]bool, len(units))
	for _, u := range g.Units {
		if u < 0 || u >= len(units) || seen[u] {
			return fmt.Errorf("toolchain: genome unit order is not a permutation (unit %d)", u)
		}
		seen[u] = true
	}
	for u := range units {
		if len(g.Procs[u]) != len(units[u].Procs) {
			return fmt.Errorf("toolchain: genome unit %d has %d procedures, compile produced %d", u, len(g.Procs[u]), len(units[u].Procs))
		}
		want := make(map[isa.ProcID]bool, len(units[u].Procs))
		for _, p := range units[u].Procs {
			want[p] = true
		}
		for _, p := range g.Procs[u] {
			if !want[p] {
				return fmt.Errorf("toolchain: genome unit %d reorders procedure %d it does not own (or repeats one)", u, p)
			}
			delete(want, p)
		}
	}
	return nil
}

// ApplyGenome produces the perturbed link line the genome encodes, the
// explicit-permutation analog of Reorder. The input units are copied,
// never mutated.
func ApplyGenome(units []Unit, g Genome) ([]Unit, error) {
	if err := g.Validate(units); err != nil {
		return nil, err
	}
	out := make([]Unit, len(units))
	for k, u := range g.Units {
		cp := units[u]
		cp.Procs = append([]isa.ProcID(nil), g.Procs[u]...)
		cp.Globals = append([]isa.ObjectID(nil), units[u].Globals...)
		out[k] = cp
	}
	return out, nil
}

// fingerprintTag salts genome fingerprints so they cannot collide with
// the hash inputs of any other derived stream.
const fingerprintTag uint64 = 0x67656e6f // "geno"

// Fingerprint is the genome's 64-bit identity: a seed-grade hash of the
// full permutation content. It plays the role a layout seed plays for
// sampled layouts — it stamps the built Executable, keys the artifact
// cache, and derives the genome's heap and noise streams — so it is
// forced even: campaign layout seeds are forced odd, which keeps
// genome-built artifacts in a disjoint keyspace of a shared layout
// cache.
func (g Genome) Fingerprint() uint64 {
	vs := make([]uint64, 0, 2+len(g.Units)*2)
	vs = append(vs, fingerprintTag, uint64(len(g.Units)))
	for _, u := range g.Units {
		vs = append(vs, uint64(u))
	}
	for _, ps := range g.Procs {
		vs = append(vs, uint64(len(ps)))
		for _, p := range ps {
			vs = append(vs, uint64(p))
		}
	}
	fp := xrand.Mix(vs...) &^ 1
	if fp == 0 {
		fp = 2
	}
	return fp
}

// MutateGenome returns a copy of g with one seeded point mutation: a
// swap of two procedures within one unit, or a swap of two units on the
// link line — the two degrees of freedom the paper's Camino perturbation
// has (§5.3), applied as a minimal move instead of a full reshuffle.
// Units with fewer than two procedures are not eligible for a procedure
// swap. A genome with no eligible move returns unchanged.
func MutateGenome(g Genome, rng *xrand.Rand) Genome {
	out := g.Clone()
	var eligible []int
	for u, ps := range out.Procs {
		if len(ps) >= 2 {
			eligible = append(eligible, u)
		}
	}
	unitSwap := len(out.Units) >= 2
	procSwap := len(eligible) > 0
	switch {
	case !unitSwap && !procSwap:
		return out
	case unitSwap && (!procSwap || rng.Bool(0.5)):
		a := rng.Intn(len(out.Units))
		b := rng.Intn(len(out.Units) - 1)
		if b >= a {
			b++
		}
		out.Units[a], out.Units[b] = out.Units[b], out.Units[a]
	default:
		ps := out.Procs[eligible[rng.Intn(len(eligible))]]
		a := rng.Intn(len(ps))
		b := rng.Intn(len(ps) - 1)
		if b >= a {
			b++
		}
		ps[a], ps[b] = ps[b], ps[a]
	}
	return out
}

// CrossoverGenomes combines two parents: the unit order uses order
// crossover (a seeded prefix of a's link line, completed in b's order),
// and each unit's procedure order is inherited wholesale from one
// parent, chosen per unit. Both inheritance rules preserve permutation
// validity by construction, so a crossover of valid parents is always a
// valid genome. The parents must have the same shape (same compile).
func CrossoverGenomes(a, b Genome, rng *xrand.Rand) Genome {
	child := Genome{
		Units: make([]int, 0, len(a.Units)),
		Procs: make([][]isa.ProcID, len(a.Procs)),
	}
	cut := rng.Intn(len(a.Units) + 1)
	taken := make(map[int]bool, len(a.Units))
	for _, u := range a.Units[:cut] {
		child.Units = append(child.Units, u)
		taken[u] = true
	}
	for _, u := range b.Units {
		if !taken[u] {
			child.Units = append(child.Units, u)
		}
	}
	for u := range a.Procs {
		src := a.Procs[u]
		if rng.Bool(0.5) {
			src = b.Procs[u]
		}
		child.Procs[u] = append([]isa.ProcID(nil), src...)
	}
	return child
}

// Genome codec. Genomes travel through the coordinator/worker lease
// protocol, live in per-generation search checkpoints, and may be
// embedded in WAL records, so the encoding is versioned and
// checksummed: a damaged genome must fail decoding — never decode to a
// wrong-but-valid layout.
const (
	genomeMagic   uint64 = 0x49464745_4e4f4d45 // "IFGENOME"
	genomeVersion uint64 = 1
)

// EncodeGenome serializes a genome as fixed-width little-endian words
// behind a magic/version header, terminated by a content checksum. The
// encoding is canonical: Decode(Encode(g)) re-encodes byte-identically.
func EncodeGenome(g Genome) []byte {
	n := 8 * (4 + len(g.Units))
	for _, ps := range g.Procs {
		n += 8 * (1 + len(ps))
	}
	out := make([]byte, 0, n)
	wu := func(v uint64) {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	wu(genomeMagic)
	wu(genomeVersion)
	wu(uint64(len(g.Units)))
	for _, u := range g.Units {
		wu(uint64(u))
	}
	for _, ps := range g.Procs {
		wu(uint64(len(ps)))
		for _, p := range ps {
			wu(uint64(p))
		}
	}
	wu(genomeChecksum(out))
	return out
}

// genomeChecksum mixes every encoded word (header included) into one
// 64-bit digest. A flipped bit anywhere in the body changes the digest,
// so corruption is detected before a genome can link a layout.
func genomeChecksum(body []byte) uint64 {
	vs := make([]uint64, 0, len(body)/8+1)
	vs = append(vs, fingerprintTag)
	for off := 0; off+8 <= len(body); off += 8 {
		vs = append(vs, binary.LittleEndian.Uint64(body[off:]))
	}
	return xrand.Mix(vs...)
}

// DecodeGenome parses an encoded genome. Any header, shape, length or
// checksum mismatch is an error; a successfully decoded genome is
// internally consistent (its unit order is a permutation and its
// procedure lists are duplicate-free), though only Validate can check it
// against a particular compile.
func DecodeGenome(data []byte) (Genome, error) {
	if len(data) < 8*4 || len(data)%8 != 0 {
		return Genome{}, fmt.Errorf("toolchain: encoded genome: truncated (%d bytes)", len(data))
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if genomeChecksum(body) != sum {
		return Genome{}, fmt.Errorf("toolchain: encoded genome: checksum mismatch")
	}
	d := wordDecoder{data: body}
	if d.u64() != genomeMagic || d.u64() != genomeVersion {
		return Genome{}, fmt.Errorf("toolchain: encoded genome: bad header")
	}
	nUnits := d.u64()
	if d.err == nil && nUnits > uint64(len(body)/8) {
		return Genome{}, fmt.Errorf("toolchain: encoded genome: implausible unit count %d", nUnits)
	}
	g := Genome{}
	seen := make([]bool, nUnits)
	for i := uint64(0); i < nUnits && d.err == nil; i++ {
		u := d.u64()
		if d.err != nil {
			break
		}
		if u >= nUnits || seen[u] {
			return Genome{}, fmt.Errorf("toolchain: encoded genome: unit order is not a permutation")
		}
		seen[u] = true
		g.Units = append(g.Units, int(u))
	}
	for i := uint64(0); i < nUnits && d.err == nil; i++ {
		nProcs := d.u64()
		if d.err != nil {
			break
		}
		if nProcs > uint64(len(body)/8) {
			return Genome{}, fmt.Errorf("toolchain: encoded genome: implausible procedure count %d", nProcs)
		}
		ps := make([]isa.ProcID, 0, nProcs)
		dup := make(map[uint64]bool, nProcs)
		for j := uint64(0); j < nProcs && d.err == nil; j++ {
			p := d.u64()
			if d.err != nil {
				break
			}
			if dup[p] {
				return Genome{}, fmt.Errorf("toolchain: encoded genome: duplicate procedure %d in unit %d", p, i)
			}
			dup[p] = true
			ps = append(ps, isa.ProcID(p))
		}
		g.Procs = append(g.Procs, ps)
	}
	if d.err != nil {
		return Genome{}, fmt.Errorf("toolchain: encoded genome: %w", d.err)
	}
	if len(d.data) != 0 {
		return Genome{}, fmt.Errorf("toolchain: encoded genome: %d trailing bytes", len(d.data))
	}
	return g, nil
}

// Units returns a deep copy of the builder's compile-time units, the
// shape a genome permutes. Search engines use it to seed and validate
// populations without recompiling.
func (b *Builder) Units() []Unit {
	out := make([]Unit, len(b.units))
	for i, u := range b.units {
		cp := u
		cp.Procs = append([]isa.ProcID(nil), u.Procs...)
		cp.Globals = append([]isa.ObjectID(nil), u.Globals...)
		out[i] = cp
	}
	return out
}

// BuildGenome links the layout a genome encodes, stamping the
// executable with the genome's fingerprint where seed-built layouts
// carry their seed. Like Build, it is deterministic and safe for
// concurrent use.
func (b *Builder) BuildGenome(g Genome) (*Executable, error) {
	units, err := ApplyGenome(b.units, g)
	if err != nil {
		return nil, err
	}
	if m := b.metrics; m != nil {
		t0 := time.Now()
		exe, err := Link(b.prog, units, g.Fingerprint(), b.lcfg)
		m.BuildSeconds.Observe(time.Since(t0).Seconds())
		m.Builds.Inc()
		return exe, err
	}
	return Link(b.prog, units, g.Fingerprint(), b.lcfg)
}

// wordDecoder reads fixed-width little-endian words, latching the first
// error so DecodeGenome can check once at the end.
type wordDecoder struct {
	data []byte
	err  error
}

func (d *wordDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 8 {
		d.err = errors.New("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data)
	d.data = d.data[8:]
	return v
}
