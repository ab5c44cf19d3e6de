package wal

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

// TestDecodeUnknownVersionRejected pins the version gate: a well-formed CRC
// over any version byte but the current one — the retired row-major '1'
// included — must be refused as an unknown version, not decoded.
func TestDecodeUnknownVersionRejected(t *testing.T) {
	for _, version := range []string{"1", "3"} {
		buf := []byte(ckptMagicPrefix + version)
		buf = binary.AppendUvarint(buf, 1)
		buf = binary.AppendUvarint(buf, 0)
		buf = binary.AppendUvarint(buf, 0)
		sum := crc32.Checksum(buf, crcTable)
		buf = binary.LittleEndian.AppendUint32(buf, sum)
		_, err := DecodeCheckpointBytes(buf)
		if err == nil || !strings.Contains(err.Error(), "unknown checkpoint version") {
			t.Fatalf("version %q: got %v, want an unknown-version error", version, err)
		}
	}
}
