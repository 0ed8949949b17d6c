package ckpt

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
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
// old file or the whole new one, never a torn one. On failure the temp file
// is removed.
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
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
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
func (s *Store) Write(c *mpi.Comm, st *State) (string, error) {
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

	meta := s.writeShard(dir, c.Rank(), st)
	info, _ := json.Marshal(meta.Info) // a struct of strings, ints and a bool: cannot fail
	entries, err := mpi.Gather(c, 0, []string{meta.Err, string(info)})

	var status string
	switch {
	case err != nil:
		status = err.Error()
	case c.Rank() == 0:
		status = s.publish(dir, st, entries)
	}
	status = mpi.Bcast(c, 0, []string{status})[0]
	if status != "" {
		return "", fmt.Errorf("ckpt: %s: %s", name, status)
	}
	return name, nil
}

// writeShard writes this rank's shard (temp, fsync, rename) and returns
// its manifest entry, or an error wrapped in the meta.
func (s *Store) writeShard(dir string, rank int, st *State) shardMeta {
	meta := shardMeta{Info: ShardInfo{
		File: shardFileName(rank),
		Kxlo: st.Kxlo, Kxhi: st.Kxhi, Kzlo: st.Kzlo, Kzhi: st.Kzhi,
		HasMean: len(st.Means) > 0,
	}}
	path := filepath.Join(dir, meta.Info.File)

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
func (s *Store) publish(dir string, st *State, entries []string) string {
	shards := make([]ShardInfo, len(entries)/2)
	for i := range shards {
		if err := json.Unmarshal([]byte(entries[2*i+1]), &shards[i]); err != nil {
			return fmt.Sprintf("shard entry of rank %d: %v", i, err)
		}
		if e := entries[2*i]; e != "" {
			return fmt.Sprintf("shard %s: %s (manifest not written)", shards[i].File, e)
		}
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
	for _, v := range st.MaxAbs {
		man.MaxAbs = append(man.MaxAbs, math.Float64bits(v))
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
		if err := s.readShard(dir, m, sh, nil); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// readShard streams one shard of the checkpoint in dir through the window
// under one checkpoint_io span: its size on disk must be the manifest's,
// its header must agree with the manifest entry and identity, and its
// CRC32C must match. dst, when not nil, receives the mode lines and mean
// block its window overlaps (see shardReader.decode); the caller has
// matched its grid to the manifest, and its list lengths are checked
// against the header before any line is decoded.
func (s *Store) readShard(dir string, m *Manifest, sh ShardInfo, dst *State) error {
	sp := s.tel.Begin(telemetry.PhaseCheckpoint)
	n, err := streamShard(filepath.Join(dir, sh.File), m, sh, dst)
	sp.End()
	s.tel.AddComm(telemetry.CommCheckpoint, n, 1)
	if err != nil {
		return fmt.Errorf("ckpt: shard %s: %w", sh.File, err)
	}
	return nil
}

// streamShard is the body of readShard. It returns the shard's size on
// disk, the bytes the span books, once the file is open.
func streamShard(path string, m *Manifest, sh ShardInfo, dst *State) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := fi.Size()
	if size != sh.Bytes {
		return size, fmt.Errorf("%d bytes on disk, manifest records %d", size, sh.Bytes)
	}
	sr, err := newShardReader(f, size)
	if err != nil {
		return size, err
	}
	h := sr.h
	switch {
	case fingerprintString(h.Fingerprint) != m.Fingerprint:
		return size, fmt.Errorf("fingerprint %016x does not match manifest %s", h.Fingerprint, m.Fingerprint)
	case h.Kxlo != sh.Kxlo || h.Kxhi != sh.Kxhi || h.Kzlo != sh.Kzlo || h.Kzhi != sh.Kzhi || (h.NMeans > 0) != sh.HasMean:
		return size, fmt.Errorf("header window disagrees with manifest entry")
	case h.Step != m.Step || h.Nx != m.Nx || h.Ny != m.Ny || h.Nz != m.Nz || h.NKx != m.NKx:
		return size, fmt.Errorf("header identity disagrees with manifest")
	case dst != nil && (h.NFields != len(dst.Fields) || (h.NMeans > 0 && len(dst.Means) > 0 && h.NMeans != len(dst.Means))):
		return size, fmt.Errorf("carries %d fields / %d mean profiles, solver expects %d / %d",
			h.NFields, h.NMeans, len(dst.Fields), len(dst.Means))
	}
	return size, sr.decode(dst)
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
// rank) and decodes the overlapping mode lines into dst's existing slices
// while it recomputes each shard's CRC. A shard whose CRC does not match
// is an error, and then dst's contents are unspecified: nothing decoded is
// trusted unless Restore returns nil. On success dst.Step/Time/Dt carry
// the checkpoint's run position and dst.MaxAbs its velocity maxima. The
// error is collective: if any rank fails, every rank returns an error.
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
	if len(dst.Means) > 0 && !slices.ContainsFunc(m.Shards, func(sh ShardInfo) bool { return sh.HasMean }) {
		return fmt.Errorf("ckpt: checkpoint %s carries no mean profiles, and this rank owns them", name)
	}
	for _, sh := range m.Shards {
		overlaps := max(sh.Kxlo, dst.Kxlo) < min(sh.Kxhi, dst.Kxhi) &&
			max(sh.Kzlo, dst.Kzlo) < min(sh.Kzhi, dst.Kzhi)
		wantMean := len(dst.Means) > 0 && sh.HasMean
		if !overlaps && !wantMean {
			continue
		}
		if err := s.readShard(dir, m, sh, dst); err != nil {
			return err
		}
	}
	dst.Step, dst.Time, dst.Dt = m.Step, m.Time, m.Dt
	dst.MaxAbs = nil
	for _, b := range m.MaxAbs {
		dst.MaxAbs = append(dst.MaxAbs, math.Float64frombits(b))
	}
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
