package toolchain_test

import (
	"testing"

	"interferometry/internal/progen"
	"interferometry/internal/testprog"
	"interferometry/internal/toolchain"
)

func TestCacheKeyInvalidation(t *testing.T) {
	branchy := testprog.Branchy()
	ccfg := toolchain.CompileConfig{ProcsPerUnit: 2}
	base := toolchain.NewBuilder(branchy, ccfg, toolchain.LinkConfig{}).Identity()

	same := toolchain.NewBuilder(testprog.Branchy(), ccfg, toolchain.LinkConfig{}).Identity()
	if same != base {
		t.Error("equal program and config produced different identities")
	}
	if k := toolchain.NewBuilder(testprog.Memory(3), ccfg, toolchain.LinkConfig{}).Identity(); k == base {
		t.Error("different program shares the identity")
	}
	if k := toolchain.NewBuilder(branchy, toolchain.CompileConfig{ProcsPerUnit: 1}, toolchain.LinkConfig{}).Identity(); k == base {
		t.Error("different unit partition shares the identity")
	}
	if k := toolchain.NewBuilder(branchy, ccfg, toolchain.LinkConfig{FetchAlign: 128}).Identity(); k == base {
		t.Error("different link config shares the identity")
	}
}

// TestIdentityGolden pins the identity bytes. Workers and coordinators
// attest against each other's identity, so a change here splits a
// fleet of mixed builds: every honest result from the other version
// would be rejected.
func TestIdentityGolden(t *testing.T) {
	spec, ok := progen.ByName("429.mcf")
	if !ok {
		t.Fatal("progen: no 429.mcf spec")
	}
	mcf, err := progen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		b    *toolchain.Builder
		want string
	}{
		{"429.mcf", toolchain.NewBuilder(mcf, toolchain.CompileConfig{}, toolchain.LinkConfig{}),
			"387ee0fdb1141311ebf7a3a7e78856b2cb3709a99bd53034c05fcb7a7a9485d6"},
		{"branchy", toolchain.NewBuilder(testprog.Branchy(), toolchain.CompileConfig{ProcsPerUnit: 2}, toolchain.LinkConfig{}),
			"5d299e645bfe278526d280692e300ba6d77c3ce299c3eec52fadd5e8b785ebc3"},
	} {
		if got := tc.b.Identity(); got != tc.want {
			t.Errorf("%s: identity %s, want %s", tc.name, got, tc.want)
		}
	}
}
