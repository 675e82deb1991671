package profile

// Versioned on-disk codec. Profiles are long-lived artefacts that outlive the
// process that trained them — the tenant profile store persists one file per
// generation, and `adprom profile publish` accepts whatever file an operator
// hands it — so the serialisation needs to fail loudly and precisely on corrupt or
// incompatible input instead of surfacing an opaque gob error (or worse,
// decoding garbage into a half-valid model).
//
// Format v1:
//
//	magic   [6]byte  "ADPROF"
//	version uint16   big-endian, currently 1
//	length  uint64   big-endian payload byte count
//	crc     uint32   big-endian IEEE CRC-32 of the payload
//	payload []byte   gob-encoded Profile
//
// and nothing after the payload. Load and Inspect are one decoder over the
// bytes read. It also accepts the v0 format (a bare gob stream, everything
// written before the header existed): the stream is sniffed via the magic
// bytes, so old profile files keep loading unchanged.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Codec constants; FormatVersion is what Save writes today.
const (
	FormatVersion = 1

	headerLen = 6 + 2 + 8 + 4
	// maxPayload bounds the payload a header may declare, and so how many
	// bytes Load reads before it refuses a stream.
	maxPayload = 1 << 30
)

var magic = [6]byte{'A', 'D', 'P', 'R', 'O', 'F'}

// Typed load failures; both wrap detail and are matchable with errors.Is.
var (
	// ErrCorrupt reports a profile stream that is truncated, bit-flipped
	// (checksum mismatch), followed by trailing bytes, or decodes into an
	// unusable profile.
	ErrCorrupt = errors.New("profile: corrupt profile data")
	// ErrIncompatible reports a well-formed profile written by a newer format
	// version than this binary understands.
	ErrIncompatible = errors.New("profile: incompatible profile format")
)

// Save writes the profile in the current versioned format: a header carrying
// the format version and a CRC-32 of the gob payload, then the payload.
func (p *Profile) Save(w io.Writer) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(p); err != nil {
		return fmt.Errorf("profile: encoding: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[:6], magic[:])
	binary.BigEndian.PutUint16(hdr[6:8], FormatVersion)
	binary.BigEndian.PutUint64(hdr[8:16], uint64(payload.Len()))
	binary.BigEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("profile: writing header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("profile: writing payload: %w", err)
	}
	return nil
}

// Note there is deliberately no Profile.Checksum method: gob serialises maps
// in nondeterministic order, so two encodings of the same profile produce
// different payload bytes. A checksum therefore fingerprints one particular
// saved stream, not the logical profile — read it from real bytes via
// Inspect, as the tenant profile store does.

// Load decodes a profile written by Save: the versioned v1 format, or the
// headerless v0 gob stream for back-compat. It reads r to the end; see
// Inspect for what it checks.
func Load(r io.Reader) (*Profile, error) {
	_, p, err := Inspect(r)
	return p, err
}

// loadPayload gob-decodes one profile and rejects decodes that produce an
// unusable model (possible when a corrupt v0 stream happens to parse).
func loadPayload(payload []byte) (*Profile, error) {
	var p Profile
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		return nil, fmt.Errorf("%w: decoding: %v", ErrCorrupt, err)
	}
	if err := checkShape(&p); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	p.buildSymIndex()
	return &p, nil
}

// checkShape validates the structural invariants detection relies on, without
// re-verifying row stochasticity (float-exact through gob, and training
// smooths anyway).
func checkShape(p *Profile) error {
	m := p.Model
	if m == nil {
		return errors.New("missing model")
	}
	if m.N <= 0 || m.M <= 0 || len(m.Pi) != m.N || len(m.A) != m.N || len(m.B) != m.N {
		return fmt.Errorf("model shape N=%d M=%d pi=%d a=%d b=%d", m.N, m.M, len(m.Pi), len(m.A), len(m.B))
	}
	for i := range m.A {
		if len(m.A[i]) != m.N || len(m.B[i]) != m.M {
			return fmt.Errorf("model row %d shape a=%d b=%d", i, len(m.A[i]), len(m.B[i]))
		}
	}
	if len(p.Symbols) == 0 {
		return errors.New("empty alphabet")
	}
	if len(p.Symbols) != m.M {
		return fmt.Errorf("%d symbols for M=%d model", len(p.Symbols), m.M)
	}
	if p.WindowLen <= 0 {
		return fmt.Errorf("window length %d", p.WindowLen)
	}
	return nil
}

// Info describes a saved profile without fully trusting it: the header
// fields, checksum verification, and the decoded profile's summary. The
// `adprom profile inspect` subcommand prints it.
type Info struct {
	// FormatVersion is 0 for headerless legacy streams.
	FormatVersion int
	// PayloadBytes is the gob payload size the header declares (the whole
	// stream for v0).
	PayloadBytes int
	// Checksum is the hex CRC-32 the header declares and the payload was
	// verified against (computed for v0 streams).
	Checksum string
	// Program, states, alphabet and detection parameters of the decoded
	// profile.
	Program      string
	States       int
	Symbols      int
	WindowLen    int
	Threshold    float64
	Reduced      bool
	TrainedIters int
}

// Inspect reads r to the end and decodes the bytes as one saved profile,
// reporting its codec-level and model-level summary. A v1 stream must be
// exactly its header plus the declared payload, and the payload must match
// the header's CRC-32; anything else (truncation, trailing bytes, a bit
// flip, or a decode into an unusable profile) fails with an error wrapping
// ErrCorrupt, and a newer format version fails with ErrIncompatible.
func Inspect(r io.Reader) (*Info, *Profile, error) {
	raw, err := io.ReadAll(io.LimitReader(r, maxPayload+headerLen+1))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: reading: %v", ErrCorrupt, err)
	}
	info := &Info{}
	payload := raw
	if bytes.HasPrefix(raw, magic[:]) {
		if payload, err = checkHeader(raw, info); err != nil {
			return nil, nil, err
		}
	} else {
		// v0: a bare gob stream (or junk, which gob will reject).
		info.PayloadBytes = len(raw)
		info.Checksum = fmt.Sprintf("%08x", crc32.ChecksumIEEE(raw))
	}
	p, err := loadPayload(payload)
	if err != nil {
		return nil, nil, err
	}
	info.Program = p.Program
	info.States = p.Model.N
	info.Symbols = len(p.Symbols)
	info.WindowLen = p.WindowLen
	info.Threshold = p.Threshold
	info.Reduced = p.Reduced
	if p.TrainResult != nil {
		info.TrainedIters = p.TrainResult.Iterations
	}
	return info, p, nil
}

// checkHeader validates a v1 stream's header against the bytes that follow
// it, records the header in info, and returns the verified payload.
func checkHeader(raw []byte, info *Info) ([]byte, error) {
	if len(raw) < headerLen {
		return nil, fmt.Errorf("%w: truncated header: %d of %d bytes", ErrCorrupt, len(raw), headerLen)
	}
	version := binary.BigEndian.Uint16(raw[6:8])
	if version == 0 || version > FormatVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads <= %d)",
			ErrIncompatible, version, FormatVersion)
	}
	length := binary.BigEndian.Uint64(raw[8:16])
	if length > maxPayload {
		return nil, fmt.Errorf("%w: declared payload of %d bytes exceeds limit", ErrCorrupt, length)
	}
	sum := binary.BigEndian.Uint32(raw[16:20])
	payload := raw[headerLen:]
	switch n := uint64(len(payload)); {
	case n < length:
		return nil, fmt.Errorf("%w: truncated payload: %d of %d bytes", ErrCorrupt, n, length)
	case n > length:
		return nil, fmt.Errorf("%w: %d trailing bytes after the %d-byte payload", ErrCorrupt, n-length, length)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch: %08x, header says %08x", ErrCorrupt, got, sum)
	}
	info.FormatVersion = int(version)
	info.PayloadBytes = int(length)
	info.Checksum = fmt.Sprintf("%08x", sum)
	return payload, nil
}
