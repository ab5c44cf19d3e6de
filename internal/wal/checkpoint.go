package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"indep/internal/relation"
)

// Checkpoint is a serialized snapshot of the engine state: the dictionary
// and every relation's rows in column-major form, plus the sequence number
// of the first WAL segment NOT covered by the snapshot (recovery loads the
// checkpoint, then replays segments >= Seq).
//
// Cols[i][c] holds scheme i's column c: exactly Counts[i] live rows in slot
// order. Building a checkpoint from a state is (near) zero-copy — the
// slices alias the instance's column arenas unless deletes left free slots
// to compact — and encoding streams each arena contiguously instead of
// walking per-row objects.
type Checkpoint struct {
	Seq    uint64
	Dict   []Binding
	Cols   [][][]relation.Value // per scheme, per column, in schema order
	Counts []int                // per scheme: row count
}

// NewCheckpoint builds a Checkpoint from a consistent snapshot state,
// cutting at seq. The state's Dict is the live, append-only dictionary, so
// the checkpoint carries every binding made when it is read, including some
// made after the cut; recovery restores them, and a log record that binds
// one again restores it as a no-op.
func NewCheckpoint(seq uint64, st *relation.State) *Checkpoint {
	ck := &Checkpoint{
		Seq:    seq,
		Cols:   make([][][]relation.Value, len(st.Insts)),
		Counts: make([]int, len(st.Insts)),
	}
	if st.Dict != nil {
		ck.Dict = st.Dict.AppendNew(&relation.Marks{}, nil)
	}
	for i, in := range st.Insts {
		ck.Cols[i], ck.Counts[i] = in.SnapshotCols()
	}
	return ck
}

// Checkpoint file layout: magic (a shared prefix plus one version byte),
// then a uvarint/varint-encoded body, then a trailing CRC32 over everything
// before it. Files are written to a temp name and atomically renamed, so a
// visible checkpoint is complete unless the disk itself corrupted it —
// which the CRC catches.
//
// Version '2', the only one, stores each relation column-major: arity, row
// count, then one length-prefixed block per column holding the column's
// varint-encoded values. Any other version byte is refused.
const (
	ckptMagicPrefix = "INDEPCK"
	ckptV2          = '2'
	ckptMagic       = ckptMagicPrefix + string(rune(ckptV2))
)

// Encode renders the checkpoint in its file format (magic, body, trailing
// CRC): the bytes WriteCheckpoint persists, and what a primary ships as a
// catch-up snapshot over the replication stream without touching disk.
func (ck *Checkpoint) Encode() []byte {
	buf := []byte(ckptMagic)
	buf = binary.AppendUvarint(buf, ck.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(ck.Dict)))
	for _, e := range ck.Dict {
		buf = binary.AppendVarint(buf, int64(e.Value))
		buf = binary.AppendUvarint(buf, uint64(len(e.Name)))
		buf = append(buf, e.Name...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(ck.Cols)))
	var colBuf []byte // scratch: one column's encoding, reused
	for i, cols := range ck.Cols {
		rows := ck.Counts[i]
		buf = binary.AppendUvarint(buf, uint64(len(cols)))
		buf = binary.AppendUvarint(buf, uint64(rows))
		for _, col := range cols {
			colBuf = colBuf[:0]
			for _, v := range col[:rows] {
				colBuf = binary.AppendVarint(colBuf, int64(v))
			}
			buf = binary.AppendUvarint(buf, uint64(len(colBuf)))
			buf = append(buf, colBuf...)
		}
	}
	sum := crc32.Checksum(buf, crcTable)
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// DecodeCheckpointBytes parses an encoded checkpoint (a checkpoint file, or
// the replication snapshot wire format), verifying the magic, version and
// trailing CRC.
func DecodeCheckpointBytes(data []byte) (*Checkpoint, error) {
	magicLen := len(ckptMagicPrefix) + 1
	if len(data) < magicLen+4 || string(data[:len(ckptMagicPrefix)]) != ckptMagicPrefix {
		return nil, fmt.Errorf("wal: not a checkpoint file")
	}
	if version := data[len(ckptMagicPrefix)]; version != ckptV2 {
		return nil, fmt.Errorf("wal: unknown checkpoint version %q", version)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("wal: checkpoint checksum mismatch")
	}
	b := body[magicLen:]
	ck := &Checkpoint{}
	var err error
	if ck.Seq, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	var n uint64
	if n, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		var v int64
		if v, b, err = readVarint(b); err != nil {
			return nil, err
		}
		var ln uint64
		if ln, b, err = readUvarint(b); err != nil {
			return nil, err
		}
		if ln > uint64(len(b)) {
			return nil, fmt.Errorf("wal: checkpoint dict name overruns file")
		}
		ck.Dict = append(ck.Dict, Binding{Value: relation.Value(v), Name: string(b[:ln])})
		b = b[ln:]
	}
	var schemes uint64
	if schemes, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	if schemes > uint64(len(b)) {
		return nil, fmt.Errorf("wal: checkpoint scheme count overruns file")
	}
	ck.Cols = make([][][]relation.Value, schemes)
	ck.Counts = make([]int, schemes)
	if err := decodeSchemes(ck, b); err != nil {
		return nil, err
	}
	return ck, nil
}

// decodeSchemes parses the columnar relation bodies: per scheme an arity,
// a row count, and one length-prefixed varint block per column.
func decodeSchemes(ck *Checkpoint, b []byte) error {
	var err error
	for i := range ck.Cols {
		var arity, rows uint64
		if arity, b, err = readUvarint(b); err != nil {
			return err
		}
		if arity > uint64(len(b))+1 { // each column block carries ≥1 length byte
			return fmt.Errorf("wal: checkpoint arity overruns file")
		}
		if rows, b, err = readUvarint(b); err != nil {
			return err
		}
		// Each row takes a byte in every column block, which bounds rows
		// by the file size — unless there are no columns.
		if arity == 0 && rows != 0 {
			return fmt.Errorf("wal: checkpoint relation %d has %d rows and no columns", i, rows)
		}
		ck.Counts[i] = int(rows)
		ck.Cols[i] = make([][]relation.Value, arity)
		for c := range ck.Cols[i] {
			var blockLen uint64
			if blockLen, b, err = readUvarint(b); err != nil {
				return err
			}
			if blockLen > uint64(len(b)) {
				return fmt.Errorf("wal: checkpoint column block overruns file")
			}
			block := b[:blockLen]
			b = b[blockLen:]
			if rows > blockLen { // every varint takes at least one byte
				return fmt.Errorf("wal: checkpoint column block too short for %d rows", rows)
			}
			col := make([]relation.Value, 0, rows)
			for r := uint64(0); r < rows; r++ {
				var v int64
				if v, block, err = readVarint(block); err != nil {
					return err
				}
				col = append(col, relation.Value(v))
			}
			if len(block) != 0 {
				return fmt.Errorf("wal: %d trailing bytes in checkpoint column block", len(block))
			}
			ck.Cols[i][c] = col
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("wal: %d trailing bytes in checkpoint", len(b))
	}
	return nil
}

// WriteCheckpoint durably writes ck to dir (temp file, fsync, atomic
// rename, directory fsync) and garbage-collects older checkpoint files.
// It returns the checkpoint's encoded size in bytes.
func WriteCheckpoint(dir string, ck *Checkpoint) (int64, error) {
	data := ck.Encode()
	size := int64(len(data))
	tmp, err := os.CreateTemp(dir, "ckpt-*.tmp")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, ckptName(ck.Seq))); err != nil {
		return 0, err
	}
	syncDir(dir)
	removeCheckpointsExcept(dir, ck.Seq)
	return size, nil
}

// LatestCheckpoint loads the newest readable checkpoint in dir, or nil if
// none exists. A corrupt newer checkpoint falls back to an older one.
func LatestCheckpoint(dir string) (*Checkpoint, error) {
	cks, err := listSeqs(dir, ckptPattern)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for i := len(cks) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(dir, ckptName(cks[i])))
		if err != nil {
			lastErr = err
			continue
		}
		ck, err := DecodeCheckpointBytes(data)
		if err != nil {
			lastErr = err
			continue
		}
		if ck.Seq != cks[i] {
			lastErr = fmt.Errorf("wal: checkpoint %s declares seq %d", ckptName(cks[i]), ck.Seq)
			continue
		}
		return ck, nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("wal: no readable checkpoint: %w", lastErr)
	}
	return nil, nil
}
