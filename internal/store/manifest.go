package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"warp/internal/store/storefs"
)

// A manifest is the root of one checkpoint: it names every live section
// and the checkpoint file each currently lives in, and records the WAL
// cut — per-chain segment boundaries plus the LSN — the checkpoint was
// taken at. Incremental checkpoints write only dirty
// sections into a fresh delta file and carry the rest forward by
// reference, so the manifest is what stitches base + deltas into one
// consistent snapshot. Manifests are tiny and installed atomically
// (temp file, fsync, rename), making the manifest rename the commit
// point of every checkpoint.
type manifest struct {
	seq    int64
	maxLSN int64
	// bounds maps chain id -> sequence number of the last WAL segment
	// the checkpoint covers. Recovery replays only segments after the
	// bound.
	bounds map[int]int64
	// sections maps section name -> checkpoint file sequence holding its
	// current contents; order preserves the writer's declaration order.
	sections []manifestSection
}

type manifestSection struct {
	name    string
	fileSeq int64
}

var manifestMagic = [8]byte{'W', 'A', 'R', 'P', 'M', 'A', 'N', '1'}

func manifestPath(dir string, seq int64) string {
	return filepath.Join(dir, fmt.Sprintf("manifest-%08d.mf", seq))
}

const manifestVersion = 1

func (m *manifest) encode() []byte {
	enc := NewEncoder()
	enc.Byte(manifestVersion)
	enc.Int(m.seq)
	enc.Int(m.maxLSN)
	ids := make([]int, 0, len(m.bounds))
	for id := range m.bounds {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	enc.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		enc.Uvarint(uint64(id))
		enc.Int(m.bounds[id])
	}
	enc.Uvarint(uint64(len(m.sections)))
	for _, s := range m.sections {
		enc.String(s.name)
		enc.Int(s.fileSeq)
	}
	return enc.Bytes()
}

func decodeManifest(payload []byte) (*manifest, error) {
	dec := NewDecoder(payload)
	if v := dec.Byte(); v != manifestVersion {
		if err := dec.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: unsupported manifest version %d", ErrCorrupt, v)
	}
	m := &manifest{seq: dec.Int(), maxLSN: dec.Int(), bounds: make(map[int]int64)}
	n := dec.Count()
	for i := 0; i < n; i++ {
		id := int(dec.Uvarint())
		m.bounds[id] = dec.Int()
	}
	n = dec.Count()
	for i := 0; i < n; i++ {
		m.sections = append(m.sections, manifestSection{name: dec.String(), fileSeq: dec.Int()})
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// fileRefs returns the set of checkpoint file sequences the manifest
// references.
func (m *manifest) fileRefs() map[int64]bool {
	refs := make(map[int64]bool)
	for _, s := range m.sections {
		refs[s.fileSeq] = true
	}
	return refs
}

// Blob files: small whole-in-memory payloads (manifests) wrapped in a
// magic + length + CRC-32C header, written to a temp file, fsynced, and
// renamed into place, so a crash mid-write leaves the old file or the
// new one — never a half-written file that validates.

func writeBlobFile(fs storefs.FS, path string, magic [8]byte, payload []byte) error {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [16]byte
	copy(hdr[0:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(payload, crcTable))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

func readBlobFile(fs storefs.FS, path string, magic [8]byte) ([]byte, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 16 || [8]byte(data[0:8]) != magic {
		return nil, fmt.Errorf("%w: %s: bad header", ErrCorrupt, filepath.Base(path))
	}
	n := int(binary.LittleEndian.Uint32(data[8:12]))
	sum := binary.LittleEndian.Uint32(data[12:16])
	if n != len(data)-16 {
		return nil, fmt.Errorf("%w: %s: length mismatch", ErrCorrupt, filepath.Base(path))
	}
	payload := data[16:]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, fmt.Errorf("%w: %s: checksum failure", ErrCorrupt, filepath.Base(path))
	}
	return payload, nil
}

func writeManifestFile(fs storefs.FS, dir string, m *manifest) error {
	return writeBlobFile(fs, manifestPath(dir, m.seq), manifestMagic, m.encode())
}

func readManifestFile(fs storefs.FS, path string) (*manifest, error) {
	payload, err := readBlobFile(fs, path, manifestMagic)
	if err != nil {
		return nil, err
	}
	return decodeManifest(payload)
}
