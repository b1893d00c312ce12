package wal_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"interferometry/internal/jobqueue/wal"
	"interferometry/internal/obs"
	"interferometry/internal/xrand"
)

func openLog(t *testing.T, path string, o *obs.Observer) (*wal.Log, []*wal.CampaignState) {
	t.Helper()
	l, states, err := wal.Open(wal.Config{Path: path, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	return l, states
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaignd.wal")
	l, states := openLog(t, path, nil)
	if len(states) != 0 {
		t.Fatalf("fresh log replayed %d campaigns", len(states))
	}
	spec := json.RawMessage(`{"benchmark":"429.mcf","layouts":3}`)
	if err := l.Submit("c1", "acme", 0, spec); err != nil {
		t.Fatal(err)
	}
	if err := l.Task("c1", 0, wal.TaskCompleted); err != nil {
		t.Fatal(err)
	}
	if err := l.Task("c1", 2, wal.TaskFailed); err != nil {
		t.Fatal(err)
	}
	if err := l.Submit("c2", "umbrella", 1, spec); err != nil {
		t.Fatal(err)
	}
	if err := l.Final("c2", "done"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(wal.Record{Op: wal.OpFinal, Campaign: "c1"}); err == nil {
		t.Fatal("append after Close succeeded")
	}

	_, states = openLog(t, path, nil)
	if len(states) != 2 {
		t.Fatalf("replayed %d campaigns, want 2", len(states))
	}
	c1, c2 := states[0], states[1]
	if c1.ID != "c1" || c2.ID != "c2" {
		t.Fatalf("replay order %q,%q — want first-submit order c1,c2", c1.ID, c2.ID)
	}
	if !c1.Live() || c1.Tenant != "acme" || string(c1.Spec) != string(spec) {
		t.Fatalf("c1 state %+v", c1)
	}
	if c1.Tasks[0] != wal.TaskCompleted || c1.Tasks[2] != wal.TaskFailed || len(c1.Tasks) != 2 {
		t.Fatalf("c1 tasks %v", c1.Tasks)
	}
	if c2.Live() || c2.Final != "done" || c2.Priority != 1 {
		t.Fatalf("c2 state %+v", c2)
	}
}

// TestTornTailIsDroppedAndRepaired: a crash mid-append leaves a partial
// line; reopen must replay everything before it, drop the torn record,
// and leave the file appendable on a clean line boundary.
func TestTornTailIsDroppedAndRepaired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaignd.wal")
	l, _ := openLog(t, path, nil)
	if err := l.Submit("c1", "", 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Task("c1", 0, wal.TaskCompleted); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn append.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"task","campaign":"c1","lay`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	o := &obs.Observer{Metrics: obs.NewMetrics()}
	l2, states := openLog(t, path, o)
	if len(states) != 1 || states[0].Tasks[0] != wal.TaskCompleted || len(states[0].Tasks) != 1 {
		t.Fatalf("replay after torn tail: %+v", states)
	}
	if v := o.Counter("campaignd_wal_torn_tails_total", "").Value(); v != 1 {
		t.Fatalf("torn tail counter %d, want 1", v)
	}
	if v := o.Counter("campaignd_wal_records_replayed_total", "").Value(); v != 2 {
		t.Fatalf("replayed counter %d, want 2", v)
	}
	// The next append lands on its own line, not glued to the torn one.
	if err := l2.Task("c1", 1, wal.TaskFailed); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, states = openLog(t, path, nil)
	if len(states[0].Tasks) != 2 || states[0].Tasks[1] != wal.TaskFailed {
		t.Fatalf("post-repair replay tasks %v", states[0].Tasks)
	}
}

// TestUnterminatedTailIsKept: if only the trailing newline was lost,
// the record itself is whole and must survive replay.
func TestUnterminatedTailIsKept(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaignd.wal")
	l, _ := openLog(t, path, nil)
	if err := l.Submit("c1", "", 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, states := openLog(t, path, nil)
	if len(states) != 1 || states[0].ID != "c1" {
		t.Fatalf("unterminated-tail replay: %+v", states)
	}
	if err := l2.Task("c1", 0, wal.TaskCompleted); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, states = openLog(t, path, nil)
	if states[0].Tasks[0] != wal.TaskCompleted {
		t.Fatalf("append after unterminated repair: %v", states[0].Tasks)
	}
}

func TestMidFileCorruptionRefusesToOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaignd.wal")
	content := `{"op":"submit","campaign":"c1","layout":0}` + "\n" +
		"not json\n" +
		`{"op":"final","campaign":"c1","layout":0,"state":"done"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := wal.Open(wal.Config{Path: path})
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-file corruption opened: %v", err)
	}
}

// TestCompactDropsFinalizedCampaigns: compaction keeps only live
// campaigns (with their task states) and the log stays appendable.
func TestCompactDropsFinalizedCampaigns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaignd.wal")
	o := &obs.Observer{Metrics: obs.NewMetrics()}
	l, _ := openLog(t, path, o)
	if err := l.Submit("done", "", 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Task("done", 0, wal.TaskCompleted); err != nil {
		t.Fatal(err)
	}
	if err := l.Final("done", "done"); err != nil {
		t.Fatal(err)
	}
	if err := l.Submit("live", "acme", 2, json.RawMessage(`{"layouts":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Task("live", 1, wal.TaskCompleted); err != nil {
		t.Fatal(err)
	}
	if g := o.Gauge("campaignd_wal_live_campaigns", "").Value(); g != 1 {
		t.Fatalf("live gauge %v, want 1", g)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if v := o.Counter("campaignd_wal_compactions_total", "").Value(); v != 1 {
		t.Fatalf("compactions %d, want 1", v)
	}
	// The compacted file holds exactly the live campaign.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"done"`) {
		t.Fatalf("compacted log still mentions finalized campaign:\n%s", data)
	}
	// Still appendable after compaction.
	if err := l.Task("live", 0, wal.TaskFailed); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, states := openLog(t, path, nil)
	if len(states) != 1 {
		t.Fatalf("replayed %d campaigns after compact, want 1", len(states))
	}
	s := states[0]
	if s.ID != "live" || s.Tenant != "acme" || s.Priority != 2 || !s.Live() {
		t.Fatalf("compacted state %+v", s)
	}
	if s.Tasks[0] != wal.TaskFailed || s.Tasks[1] != wal.TaskCompleted {
		t.Fatalf("compacted tasks %v", s.Tasks)
	}
}

// TestResubmitReopensFinalizedCampaign: a submit for a finalized id
// makes it live again with the new spec but keeps earlier task states —
// the campaign is the same deterministic function, so they still hold.
func TestResubmitReopensFinalizedCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaignd.wal")
	l, _ := openLog(t, path, nil)
	if err := l.Submit("c1", "a", 0, json.RawMessage(`{"layouts":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Task("c1", 0, wal.TaskCompleted); err != nil {
		t.Fatal(err)
	}
	if err := l.Final("c1", "done"); err != nil {
		t.Fatal(err)
	}
	if err := l.Submit("c1", "a", 1, json.RawMessage(`{"layouts":4}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, states := openLog(t, path, nil)
	if len(states) != 1 {
		t.Fatalf("replayed %d campaigns, want 1", len(states))
	}
	s := states[0]
	if !s.Live() || s.Priority != 1 || string(s.Spec) != `{"layouts":4}` {
		t.Fatalf("reopened state %+v", s)
	}
	if s.Tasks[0] != wal.TaskCompleted {
		t.Fatalf("reopened tasks %v, want layout 0 kept", s.Tasks)
	}
}

// TestLiveCountMatchesRecount drives a seeded random mix of submits,
// resubmits of finalized campaigns, task records and single, double and
// unknown-campaign Finals through the log, with Compacts and reopens
// (replays) between them. After every step Live() and the live gauge
// must equal a full recount of the replayed states' Final fields.
func TestLiveCountMatchesRecount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaignd.wal")
	m := obs.NewMetrics()
	o := &obs.Observer{Metrics: m}
	l, _ := openLog(t, path, o)
	rng := xrand.New(0x11fe)
	spec := json.RawMessage(`{"benchmark":"429.mcf","layouts":2}`)
	final := map[string]string{} // the model: campaign id → Final
	check := func(step int, what string) {
		t.Helper()
		want := 0
		for _, f := range final {
			if f == "" {
				want++
			}
		}
		if got := l.Live(); got != want {
			t.Fatalf("step %d (%s): Live() = %d, recount %d", step, what, got, want)
		}
		if got := m.Gauge("campaignd_wal_live_campaigns", "").Value(); got != float64(want) {
			t.Fatalf("step %d (%s): live gauge = %v, recount %d", step, what, got, want)
		}
	}
	ids := []string{"a", "b", "c", "d", "e", "f"}
	for step := 0; step < 400; step++ {
		id := ids[rng.Intn(len(ids))]
		var what string
		var err error
		switch op := rng.Intn(10); {
		case op < 3:
			what = "submit " + id
			err = l.Submit(id, "", 0, spec)
			final[id] = ""
		case op < 5:
			what = "task " + id
			err = l.Task(id, rng.Intn(2), wal.TaskCompleted)
		case op < 8:
			state := []string{"done", "failed", "cancelled"}[rng.Intn(3)]
			what = "final " + id + " " + state
			err = l.Final(id, state)
			if _, ok := final[id]; ok {
				final[id] = state
			}
		case op < 9:
			what = "compact"
			err = l.Compact()
			for id, f := range final {
				if f != "" {
					delete(final, id)
				}
			}
		default:
			what = "reopen"
			if err = l.Close(); err == nil {
				var states []*wal.CampaignState
				l, states = openLog(t, path, o)
				if len(states) != len(final) {
					t.Fatalf("step %d: replayed %d campaigns, model holds %d", step, len(states), len(final))
				}
				for _, s := range states {
					if s.Final != final[s.ID] {
						t.Fatalf("step %d: replayed %s Final %q, model %q", step, s.ID, s.Final, final[s.ID])
					}
				}
			}
		}
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		check(step, what)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
