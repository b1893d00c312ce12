package core

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
)

// AttestationVersion prefixes every fingerprint so the codec can evolve
// without silently accepting stale workers.
const AttestationVersion = "pia1"

// ErrAttestation reports a fingerprint that does not match the
// observation it arrived with — a malformed, tampered or cross-campaign
// result.
var ErrAttestation = errors.New("core: attestation mismatch")

// Attest computes the observation's deterministic fingerprint: a hash
// chain over the builder identity (toolchain.Builder.Identity —
// program, compile and link config) and every wire field, plus the derived CPI.
// Workers stamp it before reporting; the coordinator re-derives it from
// its own spec, so a result built by a different toolchain, for a
// different campaign, or with flipped counter bits fails the cheap
// structural check before any re-execution.
//
// The fingerprint is a checksum, not a MAC: there is no secret, so a
// worker that recomputes the hash over lied counters passes this check.
// Catching that class of lie is the audit sampler's job (spot re-runs
// through the coordinator's own runner); attestation only makes
// accidental corruption and lazy forgery free to reject.
func (w ObsWire) Attest(builderKey string) string {
	h := sha256.New()
	h.Write([]byte(AttestationVersion))
	h.Write([]byte{0})
	h.Write([]byte(builderKey))
	h.Write([]byte{0})
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(w.LayoutSeed)
	put(w.HeapSeed)
	put(w.Cycles)
	put(w.Instructions)
	put(uint64(len(w.Events)))
	for _, e := range w.Events {
		put(e)
	}
	put(uint64(w.Runs))
	put(uint64(w.Status))
	put(uint64(int64(w.Attempts)))
	cpi := 0.0
	if w.Instructions != 0 {
		cpi = float64(w.Cycles) / float64(w.Instructions)
	}
	put(math.Float64bits(cpi))
	sum := h.Sum(nil)
	return AttestationVersion + ":" + hex.EncodeToString(sum[:16])
}

// VerifyAttestation re-derives the fingerprint from builderKey and the
// wire fields and compares it to the one the observation carries.
// Missing, unversioned, wrong-version and mismatched fingerprints all
// return an error wrapping ErrAttestation.
func (w ObsWire) VerifyAttestation(builderKey string) error {
	if w.Fingerprint == "" {
		return fmt.Errorf("%w: missing fingerprint", ErrAttestation)
	}
	version, _, ok := strings.Cut(w.Fingerprint, ":")
	if !ok {
		return fmt.Errorf("%w: unversioned fingerprint %q", ErrAttestation, w.Fingerprint)
	}
	if version != AttestationVersion {
		return fmt.Errorf("%w: fingerprint version %q, want %q", ErrAttestation, version, AttestationVersion)
	}
	want := w.Attest(builderKey)
	if subtle.ConstantTimeCompare([]byte(w.Fingerprint), []byte(want)) != 1 {
		return fmt.Errorf("%w: fingerprint %s does not re-derive", ErrAttestation, w.Fingerprint)
	}
	return nil
}
