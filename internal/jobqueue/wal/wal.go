// Package wal is the durability layer under campaignd: an append-only
// JSONL write-ahead log of campaign submissions, per-layout task state
// transitions and campaign finalizations. Every append is fsynced
// before it is acknowledged, so a coordinator killed at any instant can
// replay the log on restart and resume exactly the work that was
// admitted and not yet finished.
//
// The log is deliberately small-vocabulary — three record kinds — and
// the replayed state is reconciled against per-campaign checkpoint
// directories by campaignd, not here: the WAL records *intent* (this
// campaign was admitted, this layout finished once), the checkpoint
// records *results*. Because every measurement is a pure function of
// the spec's seed tuple, replaying a task whose checkpoint record was
// lost re-derives byte-identical results, so the WAL never needs to
// store observations.
//
// Crash tolerance: a crash mid-append leaves at most one torn line at
// the tail. Open detects it, drops it, truncates the file back to the
// last complete record and counts the repair; a torn line anywhere
// else is real corruption and refuses to open. Compaction rewrites the
// live state through the same temp-file + fsync + rename + dir-fsync
// discipline as checkpoints (internal/atomicio), so the log never
// grows without bound and never loses acknowledged records.
package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"interferometry/internal/atomicio"
	"interferometry/internal/obs"
)

// Record ops. A submit admits a campaign, a task marks one layout's
// terminal state, a gen marks one search generation settled (the state
// field carries its population hash), a final closes the campaign.
const (
	OpSubmit = "submit"
	OpTask   = "task"
	OpGen    = "gen"
	OpFinal  = "final"
)

// Task states recorded by OpTask.
const (
	TaskCompleted = "completed"
	TaskFailed    = "failed"
)

// Record is one log line. Which fields are meaningful depends on Op:
// submit carries tenant/priority/spec, task carries layout/state, final
// carries state.
type Record struct {
	Op       string          `json:"op"`
	Campaign string          `json:"campaign"`
	Tenant   string          `json:"tenant,omitempty"`
	Priority int             `json:"priority,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	Layout   int             `json:"layout"`
	State    string          `json:"state,omitempty"`
}

// CampaignState is the replayed view of one campaign: what was admitted
// and how far it got. Tasks maps layout index to its last recorded
// terminal state (TaskCompleted or TaskFailed); Final is empty while
// the campaign is live.
type CampaignState struct {
	ID       string
	Tenant   string
	Priority int
	Spec     json.RawMessage
	Tasks    map[int]string
	// Gens maps a search campaign's settled generation index to the
	// population hash journaled for it. Resume cross-checks these
	// against the generation checkpoint: the hash was fsynced only
	// after the checkpoint flushed, so a checkpoint that is missing a
	// journaled generation (or disagrees on its hash) is corrupt.
	Gens  map[int]string
	Final string
}

// Live reports whether the campaign has not been finalized.
func (s *CampaignState) Live() bool { return s.Final == "" }

// Config parameterizes a log.
type Config struct {
	// Path is the log file. Required; created if missing. The parent
	// directory must exist.
	Path string
	// Obs optionally observes the log (<prefix>_wal_* instruments).
	Obs *obs.Observer
	// Prefix namespaces the instruments. Empty means "campaignd".
	Prefix string
}

// Log is an open write-ahead log. Append-side methods are safe for
// concurrent use.
type Log struct {
	path string

	appended, replayed, compactions, torn *obs.Counter
	liveG                                 *obs.Gauge

	mu    sync.Mutex
	app   *atomicio.Appender
	state map[string]*CampaignState
	order []string // campaign IDs in first-submit order
	// live counts the campaigns in state that are not finalized. apply
	// keeps it current on every Final transition between "" and
	// non-empty, so reading it never scans the log's history.
	live int
}

// Open replays an existing log (tolerating one torn tail line), opens
// it for appending and returns the replayed campaigns in first-submit
// order — finalized ones included, so the caller can distinguish "done,
// drop at next compaction" from "live, resume now" via Live().
func Open(cfg Config) (*Log, []*CampaignState, error) {
	if cfg.Path == "" {
		return nil, nil, fmt.Errorf("wal: log needs a path")
	}
	prefix := cfg.Prefix
	if prefix == "" {
		prefix = "campaignd"
	}
	l := &Log{
		path:  cfg.Path,
		state: make(map[string]*CampaignState),
	}
	if o := cfg.Obs; o != nil {
		l.appended = o.Counter(prefix+"_wal_records_appended_total", "WAL records durably appended")
		l.replayed = o.Counter(prefix+"_wal_records_replayed_total", "WAL records replayed at startup")
		l.compactions = o.Counter(prefix+"_wal_compactions_total", "WAL snapshot compactions")
		l.torn = o.Counter(prefix+"_wal_torn_tails_total", "torn tail records dropped during replay")
		l.liveG = o.Gauge(prefix+"_wal_live_campaigns", "campaigns in the WAL not yet finalized")
	}
	if err := l.replay(); err != nil {
		return nil, nil, err
	}
	app, err := atomicio.OpenAppender(cfg.Path, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	l.app = app
	l.updateLiveGauge()
	states := make([]*CampaignState, 0, len(l.order))
	for _, id := range l.order {
		states = append(states, l.state[id])
	}
	return l, states, nil
}

// replay reads the log, applies every complete record, and truncates a
// torn tail (a crash mid-append) back to the last complete record so
// subsequent appends do not concatenate onto garbage. A malformed line
// that is not the tail is corruption and fails the open.
func (l *Log) replay() error {
	data, err := os.ReadFile(l.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: replay: %w", err)
	}
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		line := data[off:]
		complete := nl >= 0
		if complete {
			line = data[off : off+nl]
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Op == "" {
			if complete && off+nl+1 < len(data) {
				return fmt.Errorf("wal: corrupt record at offset %d: %q", off, truncateForErr(line))
			}
			// Torn tail: drop it and cut the file back so the next
			// append starts on a clean line boundary.
			l.torn.Inc()
			if err := os.Truncate(l.path, int64(off)); err != nil {
				return fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			return nil
		}
		if !complete {
			// Parseable but unterminated: the newline itself was lost in
			// the crash. The record is whole, keep it, but square up the
			// file so the next append is newline-separated.
			l.apply(rec)
			l.replayed.Inc()
			if err := os.WriteFile(l.path, append(data[:off+len(line):off+len(line)], '\n'), 0o644); err != nil {
				return fmt.Errorf("wal: repair unterminated tail: %w", err)
			}
			return nil
		}
		l.apply(rec)
		l.replayed.Inc()
		off += nl + 1
	}
	return nil
}

func truncateForErr(line []byte) []byte {
	if len(line) > 80 {
		return line[:80]
	}
	return line
}

// apply folds one record into the replayed state. Unknown-campaign task
// and final records are dropped: they can only follow a compaction bug
// or hand-edited log, and refusing the whole log over them would lose
// the rest of the recovery.
func (l *Log) apply(rec Record) {
	switch rec.Op {
	case OpSubmit:
		if s, ok := l.state[rec.Campaign]; ok {
			// Resubmission of a known campaign: reopen it with the fresh
			// spec. Earlier task records stay — the campaign is the same
			// deterministic function, so prior terminal states hold.
			l.setFinal(s, "")
			s.Tenant, s.Priority, s.Spec = rec.Tenant, rec.Priority, rec.Spec
			return
		}
		l.live++
		l.state[rec.Campaign] = &CampaignState{
			ID:       rec.Campaign,
			Tenant:   rec.Tenant,
			Priority: rec.Priority,
			Spec:     rec.Spec,
			Tasks:    make(map[int]string),
		}
		l.order = append(l.order, rec.Campaign)
	case OpTask:
		if s, ok := l.state[rec.Campaign]; ok {
			s.Tasks[rec.Layout] = rec.State
		}
	case OpGen:
		if s, ok := l.state[rec.Campaign]; ok {
			if s.Gens == nil {
				s.Gens = make(map[int]string)
			}
			s.Gens[rec.Layout] = rec.State
		}
	case OpFinal:
		if s, ok := l.state[rec.Campaign]; ok {
			l.setFinal(s, rec.State)
		}
	}
}

// setFinal sets s.Final and moves the live count by the transition:
// finalizing a live campaign retires it, reopening a finalized one (a
// resubmit) revives it, and a second Final changes nothing.
func (l *Log) setFinal(s *CampaignState, final string) {
	if s.Live() && final != "" {
		l.live--
	} else if !s.Live() && final == "" {
		l.live++
	}
	s.Final = final
}

// Append durably writes one record: it is fsynced before Append
// returns. The in-memory replay state is updated in the same critical
// section so Compact always snapshots exactly what the log holds.
func (l *Log) Append(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("wal: encode: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.app == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if err := l.app.Append(append(data, '\n')); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.apply(rec)
	l.appended.Inc()
	l.updateLiveGauge()
	return nil
}

// Submit records a campaign admission.
func (l *Log) Submit(id, tenant string, priority int, spec json.RawMessage) error {
	return l.Append(Record{Op: OpSubmit, Campaign: id, Tenant: tenant, Priority: priority, Spec: spec})
}

// Task records one layout reaching a terminal state.
func (l *Log) Task(id string, layout int, state string) error {
	return l.Append(Record{Op: OpTask, Campaign: id, Layout: layout, State: state})
}

// Gen records one search generation settled with the given population
// hash. Callers must flush the generation checkpoint first, so the
// journal never claims a generation the checkpoint does not hold.
func (l *Log) Gen(id string, gen int, popHash string) error {
	return l.Append(Record{Op: OpGen, Campaign: id, Layout: gen, State: popHash})
}

// Final records a campaign finishing in the given state. The campaign
// is dropped from the log at the next Compact.
func (l *Log) Final(id, state string) error {
	return l.Append(Record{Op: OpFinal, Campaign: id, State: state})
}

// Compact rewrites the log as a minimal snapshot of its live campaigns
// — one submit plus one task record per terminal layout, finalized
// campaigns dropped — through an atomic, fsynced rename, then reopens
// the appender on the fresh file.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.app == nil {
		return fmt.Errorf("wal: log is closed")
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	live := make([]string, 0, len(l.order))
	for _, id := range l.order {
		s := l.state[id]
		if !s.Live() {
			delete(l.state, id)
			continue
		}
		live = append(live, id)
		if err := enc.Encode(Record{Op: OpSubmit, Campaign: id, Tenant: s.Tenant, Priority: s.Priority, Spec: s.Spec}); err != nil {
			return fmt.Errorf("wal: compact encode: %w", err)
		}
		layouts := make([]int, 0, len(s.Tasks))
		for i := range s.Tasks {
			layouts = append(layouts, i)
		}
		sort.Ints(layouts)
		for _, i := range layouts {
			if err := enc.Encode(Record{Op: OpTask, Campaign: id, Layout: i, State: s.Tasks[i]}); err != nil {
				return fmt.Errorf("wal: compact encode: %w", err)
			}
		}
		gens := make([]int, 0, len(s.Gens))
		for g := range s.Gens {
			gens = append(gens, g)
		}
		sort.Ints(gens)
		for _, g := range gens {
			if err := enc.Encode(Record{Op: OpGen, Campaign: id, Layout: g, State: s.Gens[g]}); err != nil {
				return fmt.Errorf("wal: compact encode: %w", err)
			}
		}
	}
	if err := l.app.Close(); err != nil {
		return fmt.Errorf("wal: compact: close old log: %w", err)
	}
	l.app = nil
	if err := atomicio.WriteFile(l.path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	app, err := atomicio.OpenAppender(l.path, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact: reopen: %w", err)
	}
	l.app = app
	l.order = live
	l.live = len(live)
	l.compactions.Inc()
	l.updateLiveGauge()
	return nil
}

// Live returns how many campaigns in the log have not been finalized.
func (l *Log) Live() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.live
}

func (l *Log) updateLiveGauge() {
	l.liveG.Set(float64(l.live))
}

// Close closes the appender. Further appends fail; the file stays.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.app == nil {
		return nil
	}
	err := l.app.Close()
	l.app = nil
	return err
}
