package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"pufatt/internal/crp"
	"pufatt/internal/obfuscate"
)

// The snapshot is the store's durable image of an enrollment: every seed,
// its eight reference raw responses, and the used-bitmap as of the last
// compaction. The layout is flat and offset-computable — the reference
// matrix is stored exactly as the in-memory shape the PR3 batch engine
// introduced (one backing array, rows carved at i*bits), so loading is one
// contiguous read straight into the backing slice and a future reader could
// mmap the file and alias the matrix in place.
//
//	offset 0   magic    uint32 LE (snapMagic "PUFC")
//	offset 4   version  uint32 LE (snapVersion)
//	offset 8   chipID   int64  LE
//	offset 16  bits     uint32 LE  raw-response width
//	offset 20  refsPer  uint32 LE  responses per seed (obfuscate fan-in, 8)
//	offset 24  count    uint32 LE  enrolled seeds
//	offset 28  epoch    uint32 LE  device reconfiguration epoch (v1: reserved, 0)
//	offset 32  seeds    count × uint64 LE, enrollment order
//	...        used     ⌈count/8⌉ bytes, bit i = seed i claimed
//	...        refs     count × refsPer × bits bytes, one byte per response
//	                    bit (row k = seed k/refsPer, expansion k%refsPer)
//	trailer    crc32    uint32 LE (IEEE, over header + payload)
//
// The CRC makes corruption loud: a snapshot that does not check out is
// rejected wholesale rather than serving subtly wrong references (which
// would surface as unexplainable attestation rejections fleet-wide).

// Version history: v1 reserved the header word at offset 28; v2 stores the
// device reconfiguration epoch there. Writers always emit v2; readers
// accept both (a v1 snapshot is an epoch-0 enrollment by definition).
const (
	snapMagic      = 0x43465550 // "PUFC"
	snapVersionV1  = 1
	snapVersion    = 2
	snapHeaderSize = 32

	// Dimension guards against hostile or garbage headers.
	maxSnapSeeds = 1 << 26
	maxSnapBits  = 1 << 10
	maxSnapRefs  = 64
)

// Snapshot-format errors.
var (
	ErrNotSnapshot  = errors.New("crpstore: not a CRP snapshot file")
	ErrSnapChecksum = errors.New("crpstore: snapshot checksum mismatch (corrupted file)")
)

// snapshot is the decoded durable state: the immutable enrollment plus the
// used-bitmap at the time it was written.
type snapshot struct {
	chipID  int
	bits    int
	refsPer int
	epoch   uint32 // device reconfiguration epoch of every reference here
	seeds   []uint64
	used    []bool
	flat    []uint8 // len(seeds)*refsPer*bits reference bytes, flat
}

// snapshotOf images an enrollment and its used set (nil: nothing claimed)
// for writing.
func snapshotOf(enr *crp.Enrollment, used []bool) *snapshot {
	if used == nil {
		used = make([]bool, enr.Len())
	}
	return &snapshot{
		chipID:  enr.ChipID(),
		bits:    enr.ResponseBits(),
		refsPer: obfuscate.ResponsesPerOutput,
		epoch:   enr.Epoch(),
		seeds:   enr.Seeds(),
		used:    used,
		flat:    enr.Refs(),
	}
}

// writeTo streams the snapshot in the format above.
func (s *snapshot) writeTo(w io.Writer) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)

	head := make([]byte, snapHeaderSize)
	binary.LittleEndian.PutUint32(head[0:], snapMagic)
	binary.LittleEndian.PutUint32(head[4:], snapVersion)
	binary.LittleEndian.PutUint64(head[8:], uint64(int64(s.chipID)))
	binary.LittleEndian.PutUint32(head[16:], uint32(s.bits))
	binary.LittleEndian.PutUint32(head[20:], uint32(s.refsPer))
	binary.LittleEndian.PutUint32(head[24:], uint32(len(s.seeds)))
	binary.LittleEndian.PutUint32(head[28:], s.epoch)
	if _, err := bw.Write(head); err != nil {
		return err
	}
	var seed [8]byte
	for _, v := range s.seeds {
		binary.LittleEndian.PutUint64(seed[:], v)
		if _, err := bw.Write(seed[:]); err != nil {
			return err
		}
	}
	bitmap := make([]byte, (len(s.used)+7)/8)
	for i, u := range s.used {
		if u {
			bitmap[i/8] |= 1 << (i % 8)
		}
	}
	if _, err := bw.Write(bitmap); err != nil {
		return err
	}
	if _, err := bw.Write(s.flat); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	_, err := w.Write(trailer[:])
	return err
}

// readSnapshot decodes and validates a snapshot stream.
func readSnapshot(r io.Reader) (*snapshot, error) {
	crc := crc32.NewIEEE()
	br := io.TeeReader(bufio.NewReaderSize(r, 1<<16), crc)

	head := make([]byte, snapHeaderSize)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("crpstore: reading snapshot header: %w", err)
	}
	if binary.LittleEndian.Uint32(head[0:]) != snapMagic {
		return nil, ErrNotSnapshot
	}
	version := binary.LittleEndian.Uint32(head[4:])
	if version != snapVersionV1 && version != snapVersion {
		return nil, fmt.Errorf("crpstore: unsupported snapshot version %d", version)
	}
	s := &snapshot{
		chipID:  int(int64(binary.LittleEndian.Uint64(head[8:]))),
		bits:    int(binary.LittleEndian.Uint32(head[16:])),
		refsPer: int(binary.LittleEndian.Uint32(head[20:])),
	}
	if version >= snapVersion {
		s.epoch = binary.LittleEndian.Uint32(head[28:])
	}
	count := int(binary.LittleEndian.Uint32(head[24:]))
	if s.bits < 1 || s.bits > maxSnapBits || s.refsPer < 1 || s.refsPer > maxSnapRefs ||
		count < 0 || count > maxSnapSeeds {
		return nil, errors.New("crpstore: snapshot dimensions out of range")
	}

	s.seeds = make([]uint64, count)
	if err := binary.Read(br, binary.LittleEndian, s.seeds); err != nil {
		return nil, fmt.Errorf("crpstore: reading snapshot seeds: %w", err)
	}
	bitmap := make([]byte, (count+7)/8)
	if _, err := io.ReadFull(br, bitmap); err != nil {
		return nil, fmt.Errorf("crpstore: reading snapshot bitmap: %w", err)
	}
	s.used = make([]bool, count)
	for i := range s.used {
		s.used[i] = bitmap[i/8]&(1<<(i%8)) != 0
	}
	s.flat = make([]uint8, count*s.refsPer*s.bits)
	if _, err := io.ReadFull(br, s.flat); err != nil {
		return nil, fmt.Errorf("crpstore: reading snapshot references: %w", err)
	}
	// Sample the CRC now: it has consumed exactly header + payload, and the
	// trailer bytes about to pass through the tee must not contribute.
	want := crc.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return nil, fmt.Errorf("crpstore: reading snapshot trailer: %w", err)
	}
	if binary.LittleEndian.Uint32(trailer[:]) != want {
		return nil, ErrSnapChecksum
	}
	return s, nil
}

// writeSnapshotFile atomically replaces path with the snapshot: write to a
// temp file in the same directory, optionally fsync, then rename over the
// target. A crash leaves either the old snapshot or the new one — never a
// half-written file — so compaction can run while claims are outstanding.
func writeSnapshotFile(path string, s *snapshot, durable bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("crpstore: creating snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := s.writeTo(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("crpstore: writing snapshot: %w", err)
	}
	if durable {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("crpstore: installing snapshot: %w", err)
	}
	if durable {
		syncDir(dir) // make the rename itself durable
	}
	return nil
}

// readSnapshotFile loads and validates the snapshot at path.
func readSnapshotFile(path string) (*snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := readSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("crpstore: %s: %w", path, err)
	}
	return s, nil
}
