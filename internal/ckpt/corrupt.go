package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
)

// FlipBit flips bit 0 of the byte at off in the file at path. Offsets are
// taken modulo the file size so callers can damage "somewhere in the
// payload" without knowing the exact length. Exposed for tests and the
// cmd/ckpt corruption drill.
func FlipBit(path string, off int64) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) == 0 {
		return fmt.Errorf("ckpt: %s is empty, nothing to flip", path)
	}
	off %= int64(len(b))
	if off < 0 {
		off += int64(len(b))
	}
	b[off] ^= 1
	return os.WriteFile(path, b, 0o644)
}

// CorruptShard damages one shard of a published checkpoint in place:
// truncation when keepBytes >= 0, otherwise a bit flip mid-payload. Used
// by the recovery tests and `cmd/ckpt corrupt` to drill the fallback
// path. The manifest is left intact — that is the point: discovery must
// convict the shard by size or CRC, not by a missing manifest.
func (s *Store) CorruptShard(name string, shard int, keepBytes int64) error {
	path := filepath.Join(s.dir, name, shardFileName(shard))
	if keepBytes >= 0 {
		return os.Truncate(path, keepBytes)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	return FlipBit(path, fi.Size()/2)
}
