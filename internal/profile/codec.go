package profile

// Versioned on-disk codec. Profiles are long-lived artefacts that outlive the
// process that trained them — the lifecycle registry persists one file per
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
// Load also accepts the v0 format (a bare gob stream, everything written
// before the header existed): the stream is sniffed via the magic bytes, so
// old profile files keep loading unchanged.

import (
	"bufio"
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
	// maxPayload bounds the declared payload length so a corrupt header
	// cannot make Load attempt a multi-gigabyte allocation.
	maxPayload = 1 << 30
)

var magic = [6]byte{'A', 'D', 'P', 'R', 'O', 'F'}

// Typed load failures; both wrap detail and are matchable with errors.Is.
var (
	// ErrCorrupt reports a profile stream that is truncated, bit-flipped
	// (checksum mismatch), or decodes into an unusable profile.
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
// Inspect, as the lifecycle registry does.

// Load decodes a profile written by Save: the versioned v1 format, or the
// headerless v0 gob stream for back-compat. Corrupt input fails with an error
// wrapping ErrCorrupt; a newer format version fails with ErrIncompatible.
func Load(r io.Reader) (*Profile, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(magic))
	if err != nil || !bytes.Equal(head, magic[:]) {
		// v0: a bare gob stream (or junk, which gob will reject).
		return loadPayload(br)
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	version := binary.BigEndian.Uint16(hdr[6:8])
	if version == 0 || version > FormatVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads <= %d)",
			ErrIncompatible, version, FormatVersion)
	}
	length := binary.BigEndian.Uint64(hdr[8:16])
	if length > maxPayload {
		return nil, fmt.Errorf("%w: declared payload of %d bytes exceeds limit", ErrCorrupt, length)
	}
	sum := binary.BigEndian.Uint32(hdr[16:20])
	// ReadAll over a LimitReader grows incrementally, so a truncated stream
	// fails cheaply instead of allocating the declared length up front.
	payload, err := io.ReadAll(io.LimitReader(br, int64(length)))
	if err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrCorrupt, err)
	}
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("%w: truncated payload: %d of %d bytes", ErrCorrupt, len(payload), length)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch: %08x, header says %08x", ErrCorrupt, got, sum)
	}
	return loadPayload(bytes.NewReader(payload))
}

// loadPayload gob-decodes one profile and rejects decodes that produce an
// unusable model (possible when a corrupt v0 stream happens to parse).
func loadPayload(r io.Reader) (*Profile, error) {
	var p Profile
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
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
	// PayloadBytes is the gob payload size.
	PayloadBytes int
	// Checksum is the hex CRC-32 of the payload (computed for v0 streams).
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

// Inspect reads a saved profile and reports its codec-level and model-level
// summary, failing with the same typed errors as Load.
func Inspect(r io.Reader) (*Info, *Profile, error) {
	raw, err := io.ReadAll(io.LimitReader(r, maxPayload+headerLen+1))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: reading: %v", ErrCorrupt, err)
	}
	p, err := Load(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	info := &Info{
		Program:   p.Program,
		States:    p.Model.N,
		Symbols:   len(p.Symbols),
		WindowLen: p.WindowLen,
		Threshold: p.Threshold,
		Reduced:   p.Reduced,
	}
	if p.TrainResult != nil {
		info.TrainedIters = p.TrainResult.Iterations
	}
	if len(raw) >= headerLen && bytes.Equal(raw[:6], magic[:]) {
		info.FormatVersion = int(binary.BigEndian.Uint16(raw[6:8]))
		payload := raw[headerLen:]
		info.PayloadBytes = len(payload)
		info.Checksum = fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload))
	} else {
		info.PayloadBytes = len(raw)
		info.Checksum = fmt.Sprintf("%08x", crc32.ChecksumIEEE(raw))
	}
	return info, p, nil
}
