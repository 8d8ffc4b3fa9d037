package hzccl

import (
	"encoding/binary"
	"errors"

	"hzccl/internal/crc32c"
)

// Integrity framing. Compressed containers crossing untrusted transports
// or cold storage can be wrapped with a CRC so corruption is detected
// before decoding (the decoder rejects malformed streams structurally, but
// a checksum also catches corruptions that happen to parse).

// ErrChecksum is returned by VerifyChecksum when the frame is damaged.
var ErrChecksum = errors.New("hzccl: checksum mismatch or malformed sealed frame")

// sealMagic marks a checksummed frame.
const sealMagic = "FZLC"

// AddChecksum wraps a compressed container in a checksummed frame:
// magic | crc32c(payload) | payload. Unwrap with VerifyChecksum.
func AddChecksum(comp []byte) []byte {
	out := make([]byte, 8+len(comp))
	copy(out, sealMagic)
	binary.LittleEndian.PutUint32(out[4:], crc32c.Checksum(comp))
	copy(out[8:], comp)
	return out
}

// VerifyChecksum validates a frame produced by AddChecksum and returns the
// inner container (sharing the frame's memory).
func VerifyChecksum(frame []byte) ([]byte, error) {
	if len(frame) < 8 || string(frame[:4]) != sealMagic {
		return nil, ErrChecksum
	}
	want := binary.LittleEndian.Uint32(frame[4:])
	payload := frame[8:]
	if crc32c.Checksum(payload) != want {
		return nil, ErrChecksum
	}
	return payload, nil
}
