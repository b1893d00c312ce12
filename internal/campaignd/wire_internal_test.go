package campaignd

import (
	"testing"

	"interferometry/internal/core"
	"interferometry/internal/experiments"
	"interferometry/internal/progen"
)

// TestWorkerReportCarriesNoAttempts pins the worker→coordinator wire: a
// worker reports one execution with Attempts zero (the coordinator
// stamps the count on accept), attested against the runner's toolchain
// identity. A coordinator's audit compares Attempts byte for byte, so a
// worker that put its own count on the wire would fail every audit by a
// coordinator that expects zero.
func TestWorkerReportCarriesNoAttempts(t *testing.T) {
	ps, ok := progen.ByName("429.mcf")
	if !ok {
		t.Fatal("unknown benchmark 429.mcf")
	}
	prog, err := progen.Generate(ps)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := core.NewLayoutRunner(core.CampaignConfig{
		Program:   prog,
		InputSeed: 1,
		Budget:    60000,
		Layouts:   2,
		Fidelity:  experiments.Small.Fidelity,
		BaseSeed:  0x1f2e3d4c,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var o core.Observation
	runner.Run(0, []core.Unit{core.LayoutUnit(1)}, 1, func(_ int, got core.Observation, err error) {
		if err != nil {
			t.Fatal(err)
		}
		o = got
	})
	wire := (&Worker{}).stamp(o, runner)
	if wire.Attempts != 0 {
		t.Errorf("reported attempts = %d, want 0", wire.Attempts)
	}
	if err := wire.VerifyAttestation(runner.AttestationKey()); err != nil {
		t.Errorf("reported observation does not verify: %v", err)
	}
	if got := wire.Observation(); got.Cycles != o.Cycles || got.LayoutSeed != o.LayoutSeed {
		t.Errorf("wire round trip changed the observation: %+v vs %+v", got, o)
	}
}
