package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// declared reads the metric names BENCHMARK.json declares in section.
func declared(t *testing.T, section string) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(b[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func reported(res *result) []string {
	var names []string
	for n, m := range res.Metrics {
		names = append(names, n+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("reported %d metrics %v, BENCHMARK.json declares %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reported %q where BENCHMARK.json declares %q", got[i], want[i])
		}
	}
}

// TestWorkloadsTiny runs every workload at a tiny size: the checks pass,
// nothing fails, and the run reports exactly the declared end-to-end
// metrics, each positive.
func TestWorkloadsTiny(t *testing.T) {
	want := declared(t, "end_to_end")
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := execute(name, 3, 0.2, false, tinySizes, t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			sameNames(t, reported(res), want)
			for n, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", n, m.Value)
				}
			}
		})
	}
}

// TestTracedTiny runs every workload's traced measurement at a tiny
// size: it reports exactly the declared per-layer metrics.
func TestTracedTiny(t *testing.T) {
	want := declared(t, "per_layer")
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := execute(name, 4, 0.2, true, tinySizes, t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			sameNames(t, reported(res), want)
		})
	}
}

// TestCorruptOutputFails flips one output byte of every workload before
// its checks read it: the run must be counted as failed.
func TestCorruptOutputFails(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := execute(name, 5, 0.2, false, tinySizes, t.TempDir(), true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted output passed: correct=%v failed=%d", res.Correct, res.Failed)
			}
			if ok := res.Metrics["ok_ratio"].Value; ok >= 1 {
				t.Fatalf("ok_ratio = %v after a failed check", ok)
			}
		})
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer("test")
	tr.spans = []span{
		{ID: 1, Name: "root", Start: 0, End: 10, Lanes: 1},
		{ID: 2, Parent: 1, Name: "core.RunCampaign", Start: 1, End: 9},
		{ID: 3, Parent: 2, Name: "machine.Batch.Run", Start: 2, End: 5},
		{ID: 4, Parent: 2, Name: "machine.Batch.Run", Start: 4, End: 6},
	}
	self := tr.selfTimes()
	if self[2] != 4 || self[3] != 3 || self[1] != 2 {
		t.Fatalf("self times %v", self)
	}
	// Overlapping siblings are concurrent callers: each one's self time
	// counts, so the sum is 4 + 3 + 2 of a one-lane root's 10.
	if f := tr.accountedFraction(1); f != 0.9 {
		t.Fatalf("accounted fraction %v, want 0.9", f)
	}
	by := tr.selfByLayer()
	if by["core"] != 4 || by["machine"] != 5 {
		t.Fatalf("self by layer %v", by)
	}
}
