package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"channeldns/internal/ckpt"
)

// The run store is the durable half of the service. Every job owns one
// directory under the store root:
//
//	<root>/job-000042/
//	    spec.json     submitted JobSpec, verbatim
//	    status.json   latest Status (atomically replaced at step cadence)
//	    ckpt/         rolling internal/ckpt store (step-%010d dirs)
//	    report.json   final BENCH report (bench-validate clean)
//	    trace.json    Chrome trace, when the spec asked for one
//
// status.json is advisory — streams and the API read the in-memory copy
// while the server is alive. The on-disk copy exists so a server that
// died without warning can reconstruct what it was doing: DiscoverRuns
// walks the root, and any run whose persisted state is non-terminal is
// re-enqueued and resumed from its latest checkpoint manifest.

// Job lifecycle states.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StatePaused      = "paused"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCancelled   = "cancelled"
	StateInterrupted = "interrupted" // checkpointed by a graceful drain
)

// terminalState reports whether a job in this state is finished for good.
// Paused and interrupted jobs are resumable; a crash leaves "running" or
// "queued" behind, which a restarted server also treats as resumable.
func terminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Status is a job's externally visible state, returned by the API and
// persisted as status.json.
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Time-advance position (updated at status cadence while running).
	Step int     `json:"step"`
	Time float64 `json:"time"`
	Dt   float64 `json:"dt,omitempty"`
	// Line is the workload's latest collective status line.
	Line string `json:"line,omitempty"`
	// Error holds the failure reason for StateFailed.
	Error string `json:"error,omitempty"`
	// Resumes counts checkpoint restores across server restarts — a job
	// that survived one crash reports resumes >= 1.
	Resumes int `json:"resumes"`
	// Checkpoint is the name of the latest published checkpoint.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Submitted/Started/Finished are wall-clock timestamps (RFC 3339);
	// Started is the most recent (re)start, Finished is set on terminal
	// states only.
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// RunStore manages the per-run directories under one root. Methods are
// safe for concurrent use only through the Manager, which serializes run
// creation and pruning; reads (List, Load) tolerate concurrent writers
// because every file is published atomically.
type RunStore struct {
	root string
}

// NewRunStore opens (creating if needed) a run store rooted at dir.
func NewRunStore(dir string) (*RunStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("run store root: %w", err)
	}
	return &RunStore{root: dir}, nil
}

const runDirPrefix = "job-"

// runDirName formats the directory name of a numeric run id; runDirID
// parses it back (-1 when the name is not a run directory).
func runDirName(id int) string { return fmt.Sprintf("%s%06d", runDirPrefix, id) }

func runDirID(name string) int {
	num, ok := strings.CutPrefix(name, runDirPrefix)
	if !ok {
		return -1
	}
	id, err := strconv.Atoi(num)
	if err != nil || id < 0 {
		return -1
	}
	return id
}

// RunID is the external job identifier ("job-000042" — the directory
// name, so an id in an API URL maps to disk by inspection).
func RunID(id int) string { return runDirName(id) }

// Dir returns the directory of run id.
func (rs *RunStore) Dir(id int) string { return filepath.Join(rs.root, runDirName(id)) }

// CkptDir returns the checkpoint store directory of run id.
func (rs *RunStore) CkptDir(id int) string { return filepath.Join(rs.Dir(id), "ckpt") }

// NextID returns one past the highest existing run id, so ids keep
// growing across server restarts and never collide with recovered runs.
func (rs *RunStore) NextID() (int, error) {
	entries, err := os.ReadDir(rs.root)
	if err != nil {
		return 0, err
	}
	next := 0
	for _, e := range entries {
		if id := runDirID(e.Name()); id >= next {
			next = id + 1
		}
	}
	return next, nil
}

// Create materializes the directory of a new run and persists its spec
// and initial status.
func (rs *RunStore) Create(id int, spec JobSpec, st Status) error {
	dir := rs.Dir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSONAtomic(filepath.Join(dir, "spec.json"), spec); err != nil {
		return err
	}
	return rs.WriteStatus(id, st)
}

// WriteStatus atomically replaces status.json (temp file + fsync + rename,
// the same publication discipline the checkpoint store uses), so a reader —
// including a future server instance recovering from our crash — never
// sees a torn status.
func (rs *RunStore) WriteStatus(id int, st Status) error {
	return writeJSONAtomic(filepath.Join(rs.Dir(id), "status.json"), st)
}

// LoadSpec reads a run's persisted job spec.
func (rs *RunStore) LoadSpec(id int) (JobSpec, error) {
	data, err := os.ReadFile(filepath.Join(rs.Dir(id), "spec.json"))
	if err != nil {
		return JobSpec{}, err
	}
	return decodeSpec(data)
}

// LoadStatus reads a run's persisted status.
func (rs *RunStore) LoadStatus(id int) (Status, error) {
	var st Status
	data, err := os.ReadFile(filepath.Join(rs.Dir(id), "status.json"))
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("run %s status: %w", runDirName(id), err)
	}
	return st, nil
}

// ids returns the existing run ids, ascending.
func (rs *RunStore) ids() ([]int, error) {
	entries, err := os.ReadDir(rs.root)
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, e := range entries {
		if id := runDirID(e.Name()); id >= 0 && e.IsDir() {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// Prune removes the oldest terminal runs beyond keep, returning how many
// were deleted. Non-terminal runs are never pruned regardless of age —
// retention must not eat a job the server still owes work on. keep < 0
// disables pruning.
func (rs *RunStore) Prune(keep int) (int, error) {
	if keep < 0 {
		return 0, nil
	}
	ids, err := rs.ids()
	if err != nil {
		return 0, err
	}
	var terminal []int
	for _, id := range ids {
		st, err := rs.LoadStatus(id)
		if err == nil && terminalState(st.State) {
			terminal = append(terminal, id)
		}
	}
	removed := 0
	for len(terminal)-removed > keep {
		if err := os.RemoveAll(rs.Dir(terminal[removed])); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// RunInfo is one discovered run: its identity, spec, last persisted
// status, and the latest published checkpoint (if any). Shared by the
// server's restart recovery and `ckpt ls -runs`.
type RunInfo struct {
	ID     int
	Spec   JobSpec
	Status Status
	// Latest checkpoint manifest, nil when the run never checkpointed.
	CkptName string
	Manifest *ckpt.Manifest
}

// DiscoverRuns walks a run-store root and reconstructs every run from its
// on-disk record, ascending by id. Runs whose spec or status is missing
// or unreadable are skipped (half-created directories from a crash during
// Create carry no work worth recovering); a missing or corrupt checkpoint
// simply leaves Manifest nil, since the checkpoint store itself handles
// per-checkpoint corruption fallback at resume time.
func DiscoverRuns(root string) ([]RunInfo, error) {
	rs, err := NewRunStore(root)
	if err != nil {
		return nil, err
	}
	ids, err := rs.ids()
	if err != nil {
		return nil, err
	}
	var runs []RunInfo
	for _, id := range ids {
		spec, err := rs.LoadSpec(id)
		if err != nil {
			continue
		}
		st, err := rs.LoadStatus(id)
		if err != nil {
			continue
		}
		info := RunInfo{ID: id, Spec: spec, Status: st}
		if name, man, err := ckpt.LatestManifest(rs.CkptDir(id)); err == nil {
			info.CkptName = name
			info.Manifest = man
		}
		runs = append(runs, info)
	}
	return runs, nil
}

// Resumable reports whether a discovered run still owes steps: any
// non-terminal persisted state counts, because "running"/"queued" on disk
// means the previous server died mid-flight.
func (ri RunInfo) Resumable() bool { return !terminalState(ri.Status.State) }

// writeJSONAtomic publishes v at path the way ckpt publishes a shard: a
// uniquely named temp file in the same directory, fsynced before the rename,
// then the directory fsynced best-effort so the rename itself is durable. A
// reader, even after a power cut, sees the old record or the whole new one,
// never an empty file that DiscoverRuns would skip.
func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(append(data, '\n'))
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync() // not every platform syncs a directory; the rename is atomic anyway
		d.Close()
	}
	return nil
}
