package campaignd_test

import (
	"bytes"
	"context"
	"testing"

	"interferometry/internal/campaignd"
)

// TestShardedDeltaMatchesSingleProcess is the sharded leg of the engine
// determinism matrix: one campaign served by a mixed fleet, one remote
// worker leasing singly (scalar replay) and one leasing up to 4 tasks
// per pull (batched walks), must produce the exact dataset bytes
// (provenance columns included) of a clean single-process run. Which
// replay engine measured a layout, like batching and sharding, must not
// move a byte. The test once forced the delta-replay engine onto every
// worker (DESIGN.md §15); with that engine gone, the scalar/batched mix
// is the engine choice left to vary.
func TestShardedDeltaMatchesSingleProcess(t *testing.T) {
	spec := testSpec(10)
	want := datasetCSV(t, cleanDataset(t, spec))

	_, client := startService(t, campaignd.Config{NoLocalWorkers: true})
	startWorkers(t, client.Base, client.HTTP, 1, 0)
	startWorkers(t, client.Base, client.HTTP, 1, 4)
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != campaignd.StateDone {
		t.Fatalf("mixed-fleet campaign ended %s: %s", st.State, st.Error)
	}
	got, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("mixed-fleet dataset differs from single-process run:\n--- sharded ---\n%s--- clean ---\n%s", got, want)
	}
}
