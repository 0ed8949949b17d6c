package ckpt

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// ManifestName is the file, inside a checkpoint directory, whose atomic
// appearance publishes the checkpoint. Discovery keys on it: a directory
// without (or with an unreadable) manifest is an unfinished or torn
// attempt and is never restored from.
const ManifestName = "MANIFEST.json"

// ShardInfo is one shard's entry in a manifest: where it is, which
// wavenumber window it covers, and the integrity data (size + CRC32C of
// the whole file) Verify checks before a checkpoint is trusted.
type ShardInfo struct {
	File    string `json:"file"`
	Kxlo    int    `json:"kxlo"`
	Kxhi    int    `json:"kxhi"`
	Kzlo    int    `json:"kzlo"`
	Kzhi    int    `json:"kzhi"`
	HasMean bool   `json:"has_mean,omitempty"`
	Bytes   int64  `json:"bytes"`
	CRC32C  string `json:"crc32c"`
}

// Manifest describes one published checkpoint: the configuration identity
// it belongs to, the run position it froze, and every shard with its
// checksum. It is written by rank 0 only after all shards have landed.
type Manifest struct {
	Format      int         `json:"format"`
	Fingerprint string      `json:"fingerprint"` // %016x of State.Fingerprint
	Workload    string      `json:"workload,omitempty"`
	Nx          int         `json:"nx"`
	Ny          int         `json:"ny"`
	Nz          int         `json:"nz"`
	NKx         int         `json:"nkx"`
	Step        int64       `json:"step"`
	Time        float64     `json:"time"`
	Dt          float64     `json:"dt"`
	MaxAbs      []uint64    `json:"max_abs,omitempty"` // bits of State.MaxAbs, so NaN round-trips
	Ranks       int         `json:"ranks"`
	Shards      []ShardInfo `json:"shards"`
}

// fingerprintString formats a fingerprint the way manifests store it.
func fingerprintString(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// Validate checks the manifest's internal shape: format generation, sane
// grid, one shard per rank, windows inside the grid that tile it exactly
// (every (kx, kz) mode covered once), at most one mean-carrying shard
// (workloads without mean profiles, like isotropic turbulence, have none),
// and no or 3 x Ny velocity maxima.
func (m *Manifest) Validate() error {
	if m.Format != FormatVersion {
		return fmt.Errorf("ckpt: manifest format %d, reader supports %d", m.Format, FormatVersion)
	}
	if m.Nx <= 0 || m.Ny <= 0 || m.Nz <= 0 || m.NKx <= 0 {
		return fmt.Errorf("ckpt: manifest carries degenerate grid %dx%dx%d", m.Nx, m.Ny, m.Nz)
	}
	// Bound the mode count so it and every sum of window areas below it
	// fit an int: a wrapped product could match a wrapped coverage.
	if m.NKx > math.MaxInt32 || m.Nz > math.MaxInt32 {
		return fmt.Errorf("ckpt: manifest grid nkx %d x nz %d is too large", m.NKx, m.Nz)
	}
	if len(m.MaxAbs) != 0 && len(m.MaxAbs) != 3*m.Ny {
		return fmt.Errorf("ckpt: manifest carries %d velocity maxima, want 0 or 3 x ny = %d", len(m.MaxAbs), 3*m.Ny)
	}
	if m.Ranks != len(m.Shards) || m.Ranks == 0 {
		return fmt.Errorf("ckpt: manifest lists %d shards for %d ranks", len(m.Shards), m.Ranks)
	}
	covered := 0
	meanShards := 0
	for i, sh := range m.Shards {
		if sh.File == "" || filepath.Base(sh.File) != sh.File {
			return fmt.Errorf("ckpt: shard %d: bad file name %q (must be dir-local)", i, sh.File)
		}
		if sh.Kxlo < 0 || sh.Kxhi > m.NKx || sh.Kxlo > sh.Kxhi ||
			sh.Kzlo < 0 || sh.Kzhi > m.Nz || sh.Kzlo > sh.Kzhi {
			return fmt.Errorf("ckpt: shard %d: window kx[%d,%d) kz[%d,%d) outside grid",
				i, sh.Kxlo, sh.Kxhi, sh.Kzlo, sh.Kzhi)
		}
		// Disjoint windows whose areas sum to the grid's tile it: every mode
		// once. (Empty windows, of ranks that own nothing, overlap nothing.)
		for j, o := range m.Shards[:i] {
			if max(sh.Kxlo, o.Kxlo) < min(sh.Kxhi, o.Kxhi) && max(sh.Kzlo, o.Kzlo) < min(sh.Kzhi, o.Kzhi) {
				return fmt.Errorf("ckpt: shard %d: window kx[%d,%d) kz[%d,%d) overlaps shard %d's",
					i, sh.Kxlo, sh.Kxhi, sh.Kzlo, sh.Kzhi, j)
			}
		}
		covered += (sh.Kxhi - sh.Kxlo) * (sh.Kzhi - sh.Kzlo)
		if sh.HasMean {
			meanShards++
		}
	}
	if covered != m.NKx*m.Nz {
		return fmt.Errorf("ckpt: shards cover %d of %d modes", covered, m.NKx*m.Nz)
	}
	if meanShards > 1 {
		return fmt.Errorf("ckpt: %d shards carry the mean profiles, want at most 1", meanShards)
	}
	return nil
}

// readManifest loads and validates the manifest of one checkpoint
// directory.
func readManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	return parseManifest(raw)
}

// parseManifest decodes and validates a manifest's bytes.
func parseManifest(raw []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("ckpt: parsing %s: %w", ManifestName, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// Deterministic shard order for iteration regardless of gather order.
	sort.Slice(m.Shards, func(i, j int) bool {
		a, b := m.Shards[i], m.Shards[j]
		if a.Kxlo != b.Kxlo {
			return a.Kxlo < b.Kxlo
		}
		return a.Kzlo < b.Kzlo
	})
	return &m, nil
}

// encodeManifest renders the canonical (deterministic, indented) JSON.
func encodeManifest(m *Manifest) ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
