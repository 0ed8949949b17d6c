package ckpt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"channeldns/internal/mpi"
	"channeldns/internal/telemetry"
)

// Store owns a directory of checkpoints:
//
//	<dir>/step-0000000040/shard-0000.ckpt
//	                      shard-0001.ckpt
//	                      MANIFEST.json      <- written last; publishes the checkpoint
//	<dir>/step-0000000080/...
//
// Writes are collective over an mpi communicator (one shard per rank),
// discovery and retention are local filesystem scans. A Store is a
// per-rank value: construct one on every rank with the same directory.
type Store struct {
	dir  string
	keep int
	tel  *telemetry.Collector
}

// StoreOption configures a Store.
type StoreOption func(*Store)

// WithRetention keeps only the newest k published checkpoints, pruning
// older ones (and stale unpublished attempts) after each successful write.
// k <= 0 keeps everything.
func WithRetention(k int) StoreOption { return func(s *Store) { s.keep = k } }

// WithTelemetry attaches this rank's collector: every shard or manifest
// transfer becomes a PhaseCheckpoint span paired with one CommCheckpoint
// byte-count record. Nil (the default) disables instrumentation.
func WithTelemetry(c *telemetry.Collector) StoreOption { return func(s *Store) { s.tel = c } }

// NewStore returns a store rooted at dir. The directory is created on
// first write; a missing directory is an empty store.
func NewStore(dir string, opts ...StoreOption) *Store {
	s := &Store{dir: dir}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

const (
	ckptDirPrefix = "step-"
	tmpSuffix     = ".tmp"
)

// checkpointName returns the directory name of the checkpoint at a step.
func checkpointName(step int64) string {
	return fmt.Sprintf("%s%010d", ckptDirPrefix, step)
}

// stepOfName inverts checkpointName; ok is false for foreign names.
func stepOfName(name string) (int64, bool) {
	if !strings.HasPrefix(name, ckptDirPrefix) {
		return 0, false
	}
	n, err := strconv.ParseInt(strings.TrimPrefix(name, ckptDirPrefix), 10, 64)
	return n, err == nil
}

func shardFileName(rank int) string { return fmt.Sprintf("shard-%04d.ckpt", rank) }

// shardMeta is one rank's write result. Rank 0 gathers it to assemble the
// manifest as two strings, Err and the JSON of Info: messages carry slices of
// mpi.Elem only, so the entry travels as the JSON object the manifest holds.
type shardMeta struct {
	Info ShardInfo
	Err  string
}

// writeAtomic writes path through a same-directory temp file: write fills
// it, then it is fsynced, closed and renamed into place, and the directory
// is fsynced best-effort so the rename itself is durable. A reader sees the
// old file or the whole new one, never a torn one.
func writeAtomic(path string, write func(io.Writer) error) error {
	tmp := path + tmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory, ignoring errors (not all platforms support
// directory fsync; the rename is still atomic without it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Write publishes one checkpoint collectively: every rank of c writes its
// shard of st, then rank 0 writes the manifest once all shards have
// landed. Returns the checkpoint name (identical on every rank). On any
// failure no manifest is written and the previous checkpoint remains the
// latest — a checkpoint is never partially visible.
func (s *Store) Write(c *mpi.Comm, st *State, opts ...WriteOption) (string, error) {
	plan := newWritePlan(opts)
	name := checkpointName(st.Step)
	dir := filepath.Join(s.dir, name)

	// Rank 0 prepares the directory (and retracts any manifest from an
	// earlier checkpoint at the same step, so a failure mid-rewrite cannot
	// leave a manifest describing mixed shard generations).
	var prep string
	if c.Rank() == 0 {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			prep = err.Error()
		} else if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil && !os.IsNotExist(err) {
			prep = err.Error()
		}
	}
	prep = mpi.Bcast(c, 0, []string{prep})[0]
	if prep != "" {
		return "", fmt.Errorf("ckpt: preparing %s: %s", name, prep)
	}

	meta := s.writeShard(dir, c.Rank(), st, plan)
	info, _ := json.Marshal(meta.Info) // a struct of strings, ints and a bool: cannot fail
	entries, err := mpi.Gather(c, 0, []string{meta.Err, string(info)})

	var status string
	switch {
	case err != nil:
		status = err.Error()
	case c.Rank() == 0:
		status = s.publish(dir, st, entries, plan)
	}
	status = mpi.Bcast(c, 0, []string{status})[0]
	if status != "" {
		return "", fmt.Errorf("ckpt: %s: %s", name, status)
	}

	// Post-publication corruption injection: models silent disk damage
	// that happens after a successful write (the recovery tests' subject).
	if err := plan.corruptPublished(dir, c.Rank()); err != nil {
		return "", err
	}
	return name, nil
}

// writeShard writes this rank's shard (temp, fsync, rename) and returns
// its manifest entry, or an error wrapped in the meta.
func (s *Store) writeShard(dir string, rank int, st *State, plan *writePlan) shardMeta {
	meta := shardMeta{Info: ShardInfo{
		File: shardFileName(rank),
		Kxlo: st.Kxlo, Kxhi: st.Kxhi, Kzlo: st.Kzlo, Kzhi: st.Kzhi,
		HasMean: st.HasMean,
	}}
	path := filepath.Join(dir, meta.Info.File)

	if plan.crashRank == rank {
		// Simulated crash mid-write: a truncated temp file, never renamed.
		if err := plan.crashShard(path, st); err != nil {
			meta.Err = err.Error()
		} else {
			meta.Err = "injected crash during shard write"
		}
		return meta
	}

	sp := s.tel.Begin(telemetry.PhaseCheckpoint)
	var n int64
	var crc uint32
	err := writeAtomic(path, func(w io.Writer) (err error) {
		n, crc, err = EncodeShard(w, st)
		return err
	})
	sp.End()
	s.tel.AddComm(telemetry.CommCheckpoint, n, 1)
	if err != nil {
		meta.Err = err.Error()
		return meta
	}
	meta.Info.Bytes = n
	meta.Info.CRC32C = fmt.Sprintf("%08x", crc)
	return meta
}

// publish runs on rank 0 once every rank's entry (Err, then the JSON of
// Info) has been gathered: decodes and checks them, writes the manifest
// atomically, and applies retention. Returns "" on success or the error text
// to broadcast.
func (s *Store) publish(dir string, st *State, entries []string, plan *writePlan) string {
	shards := make([]ShardInfo, len(entries)/2)
	for i := range shards {
		if err := json.Unmarshal([]byte(entries[2*i+1]), &shards[i]); err != nil {
			return fmt.Sprintf("shard entry of rank %d: %v", i, err)
		}
		if e := entries[2*i]; e != "" {
			return fmt.Sprintf("shard %s: %s (manifest not written)", shards[i].File, e)
		}
	}
	if plan.dropManifest {
		return "injected manifest loss (shards landed, checkpoint unpublished)"
	}
	man := &Manifest{
		Format:      FormatVersion,
		Fingerprint: fingerprintString(st.Fingerprint),
		Workload:    st.Workload,
		Nx:          st.Nx, Ny: st.Ny, Nz: st.Nz, NKx: st.NKx,
		Step: st.Step, Time: st.Time, Dt: st.Dt,
		Ranks:  len(shards),
		Shards: shards,
	}
	if err := man.Validate(); err != nil {
		return err.Error()
	}
	data, err := encodeManifest(man)
	if err != nil {
		return err.Error()
	}
	sp := s.tel.Begin(telemetry.PhaseCheckpoint)
	err = writeAtomic(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	sp.End()
	s.tel.AddComm(telemetry.CommCheckpoint, int64(len(data)), 1)
	if err != nil {
		return err.Error()
	}
	s.prune(st.Step)
	return ""
}

// prune enforces rolling retention after the checkpoint at justWrote
// published: published checkpoints beyond the newest keep are removed,
// as are unpublished (torn, crashed) attempts older than justWrote.
// Best-effort: removal errors leave extra data behind, never break a
// successful write.
func (s *Store) prune(justWrote int64) {
	names, err := s.Checkpoints()
	if err != nil {
		return
	}
	published := 0
	for _, name := range names { // names are newest-first
		step, _ := stepOfName(name)
		dir := filepath.Join(s.dir, name)
		if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
			published++
			if s.keep > 0 && published > s.keep {
				os.RemoveAll(dir)
			}
			continue
		}
		if step < justWrote {
			os.RemoveAll(dir) // stale torn attempt
		}
	}
}

// Checkpoints returns the names of every checkpoint directory in the
// store (published or not), newest step first. A missing store directory
// is an empty store.
func (s *Store) Checkpoints() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	type cand struct {
		name string
		step int64
	}
	var cands []cand
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		if step, ok := stepOfName(e.Name()); ok {
			cands = append(cands, cand{e.Name(), step})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].step > cands[j].step })
	names := make([]string, len(cands))
	for i, c := range cands {
		names[i] = c.name
	}
	return names, nil
}

// Verify fully checks one checkpoint: the manifest parses and is
// internally consistent, and every listed shard exists with the recorded
// size, a matching header, and a valid CRC32C. Returns the manifest on
// success.
func (s *Store) Verify(name string) (*Manifest, error) {
	dir := filepath.Join(s.dir, name)
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	for _, sh := range m.Shards {
		if err := s.verifyShard(dir, m, sh); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// verifyShard reads one shard completely and checks it against its
// manifest entry.
func (s *Store) verifyShard(dir string, m *Manifest, sh ShardInfo) error {
	b, err := s.readShardFile(filepath.Join(dir, sh.File))
	if err != nil {
		return fmt.Errorf("ckpt: shard %s: %w", sh.File, err)
	}
	if int64(len(b)) != sh.Bytes {
		return fmt.Errorf("ckpt: shard %s: %d bytes on disk, manifest records %d",
			sh.File, len(b), sh.Bytes)
	}
	h, err := parseShard(b)
	if err != nil {
		return fmt.Errorf("ckpt: shard %s: %w", sh.File, err)
	}
	if fingerprintString(h.Fingerprint) != m.Fingerprint {
		return fmt.Errorf("ckpt: shard %s: fingerprint %016x does not match manifest %s",
			sh.File, h.Fingerprint, m.Fingerprint)
	}
	if h.Kxlo != sh.Kxlo || h.Kxhi != sh.Kxhi || h.Kzlo != sh.Kzlo || h.Kzhi != sh.Kzhi ||
		h.HasMean != sh.HasMean {
		return fmt.Errorf("ckpt: shard %s: header window disagrees with manifest entry", sh.File)
	}
	if h.Step != m.Step || h.Nx != m.Nx || h.Ny != m.Ny || h.Nz != m.Nz || h.NKx != m.NKx {
		return fmt.Errorf("ckpt: shard %s: header identity disagrees with manifest", sh.File)
	}
	return nil
}

// readShardFile reads a whole shard under a telemetry span.
func (s *Store) readShardFile(path string) ([]byte, error) {
	sp := s.tel.Begin(telemetry.PhaseCheckpoint)
	b, err := os.ReadFile(path)
	sp.End()
	s.tel.AddComm(telemetry.CommCheckpoint, int64(len(b)), 1)
	return b, err
}

// Latest returns the newest checkpoint that passes Verify, skipping over
// corrupt or unpublished attempts. ErrNoCheckpoint when none qualifies.
func (s *Store) Latest() (string, *Manifest, error) {
	names, err := s.Checkpoints()
	if err != nil {
		return "", nil, err
	}
	for _, name := range names {
		if m, err := s.Verify(name); err == nil {
			return name, m, nil
		}
	}
	return "", nil, ErrNoCheckpoint
}

// LatestManifest is one-shot discovery for callers that hold only a
// directory, not a live run: the newest fully verified checkpoint in dir
// and its manifest (workload, grid, step, shard inventory). The job
// server's restart recovery and `ckpt ls -runs` both key on it, so the
// drill tool and the server cannot drift. ErrNoCheckpoint when the
// directory holds nothing usable (including when it does not exist).
func LatestManifest(dir string) (string, *Manifest, error) {
	return NewStore(dir).Latest()
}

// matches reports whether a manifest belongs to the configuration dst
// describes (workload + fingerprint + grid identity; the process grid is
// free to differ — that is the point of re-sharded resume).
func (m *Manifest) matches(dst *State) bool {
	return m.Workload == dst.Workload &&
		m.Fingerprint == fingerprintString(dst.Fingerprint) &&
		m.Nx == dst.Nx && m.Ny == dst.Ny && m.Nz == dst.Nz && m.NKx == dst.NKx
}

// Restore collectively reads the named checkpoint into dst on every rank
// of c, re-sharding as needed: each rank reads exactly the shards whose
// windows overlap its own (plus the mean-carrying shard on the mean-owner
// rank), verifies each shard's CRC before trusting a byte of it, and
// copies the overlapping mode lines into dst's existing slices. On
// success dst.Step/Time/Dt carry the checkpoint's run position. The error
// is collective: if any rank fails, every rank returns an error.
func (s *Store) Restore(c *mpi.Comm, name string, dst *State) error {
	err := s.restoreLocal(name, dst)
	flag := 0
	if err != nil {
		flag = 1
	}
	if mpi.Allreduce(c, mpi.OpMax, []int{flag})[0] != 0 {
		if err != nil {
			return err
		}
		return fmt.Errorf("ckpt: restore of %s failed on another rank", name)
	}
	return nil
}

// restoreLocal is the per-rank body of Restore.
func (s *Store) restoreLocal(name string, dst *State) error {
	if err := dst.validate(); err != nil {
		return err
	}
	dir := filepath.Join(s.dir, name)
	m, err := readManifest(dir)
	if err != nil {
		return err
	}
	if m.Workload != dst.Workload {
		return fmt.Errorf("ckpt: checkpoint %s belongs to workload %q, not %q",
			name, m.Workload, dst.Workload)
	}
	if !m.matches(dst) {
		return fmt.Errorf("ckpt: checkpoint %s belongs to configuration %s grid %dx%dx%d, not ours",
			name, m.Fingerprint, m.Nx, m.Ny, m.Nz)
	}
	for _, sh := range m.Shards {
		overlaps := max(sh.Kxlo, dst.Kxlo) < min(sh.Kxhi, dst.Kxhi) &&
			max(sh.Kzlo, dst.Kzlo) < min(sh.Kzhi, dst.Kzhi)
		wantMean := dst.HasMean && sh.HasMean
		if !overlaps && !wantMean {
			continue
		}
		b, err := s.readShardFile(filepath.Join(dir, sh.File))
		if err != nil {
			return fmt.Errorf("ckpt: shard %s: %w", sh.File, err)
		}
		h, err := parseShard(b)
		if err != nil {
			return fmt.Errorf("ckpt: shard %s: %w", sh.File, err)
		}
		if h.Ny != dst.Ny {
			return fmt.Errorf("ckpt: shard %s: Ny %d, want %d", sh.File, h.Ny, dst.Ny)
		}
		if h.NExtra != len(dst.Extra) || (wantMean && h.NExtraMean != len(dst.ExtraMean)) {
			return fmt.Errorf("ckpt: shard %s: carries %d extra fields / %d extra means, solver expects %d / %d",
				sh.File, h.NExtra, h.NExtraMean, len(dst.Extra), len(dst.ExtraMean))
		}
		copyOverlap(b, h, dst)
	}
	dst.Step, dst.Time, dst.Dt = m.Step, m.Time, m.Dt
	return nil
}

// Resume collectively restores the newest valid checkpoint compatible
// with dst, falling back to progressively older checkpoints when a
// candidate turns out corrupt (rank-0 verification catches torn writes
// and bit flips; read-time CRC failures on any rank demote the candidate
// too). Returns the name restored from, or ErrNoCheckpoint when the store
// holds nothing usable.
func (s *Store) Resume(c *mpi.Comm, dst *State) (string, error) {
	tried := map[string]bool{}
	for {
		pair := []string{"", ""}
		if c.Rank() == 0 {
			pair[0], pair[1] = s.nextValid(tried, dst)
		}
		pair = mpi.Bcast(c, 0, pair)
		name, mismatch := pair[0], pair[1]
		if name == "" {
			if mismatch != "" {
				// A healthy checkpoint exists but belongs to another
				// workload: that is a configuration error the caller must
				// see, not an empty store to silently start fresh from.
				return "", fmt.Errorf("ckpt: %s", mismatch)
			}
			return "", ErrNoCheckpoint
		}
		if err := s.Restore(c, name, dst); err == nil {
			return name, nil
		}
		tried[name] = true // only consulted on rank 0
	}
}

// nextValid returns the newest untried checkpoint that passes Verify and
// belongs to dst's configuration, or "". The second return is a
// description of the newest valid checkpoint rejected purely for a
// workload mismatch, when no matching checkpoint exists at all.
func (s *Store) nextValid(tried map[string]bool, dst *State) (string, string) {
	names, err := s.Checkpoints()
	if err != nil {
		return "", ""
	}
	mismatch := ""
	for _, name := range names {
		if tried[name] {
			continue
		}
		m, err := s.Verify(name)
		if err != nil {
			continue
		}
		if !m.matches(dst) {
			if mismatch == "" && m.Workload != dst.Workload &&
				m.Nx == dst.Nx && m.Ny == dst.Ny && m.Nz == dst.Nz {
				mismatch = fmt.Sprintf("checkpoint %s belongs to workload %q, not %q",
					name, m.Workload, dst.Workload)
			}
			continue
		}
		return name, ""
	}
	return "", mismatch
}
