package profile

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"testing"

	"adprom/internal/hmm"
)

// testProfile builds a small but structurally complete profile without
// running the training pipeline.
func testProfile(t *testing.T) *Profile {
	t.Helper()
	p := &Profile{
		Program:      "tiny",
		Symbols:      []string{"a", "b", "c", UnknownLabel},
		WindowLen:    4,
		Threshold:    -2.5,
		CallerIndex:  map[string][]string{"a": {"main"}, "b": {"main", "report"}},
		LeakLabels:   map[string]bool{"b": true},
		StatesBefore: 3,
		StatesAfter:  3,
	}
	p.Model = hmm.New(3, len(p.Symbols))
	p.buildSymIndex()
	return p
}

func TestSaveWritesVersionedHeader(t *testing.T) {
	p := testProfile(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) < headerLen {
		t.Fatalf("saved %d bytes, shorter than the header", len(b))
	}
	if !bytes.Equal(b[:6], magic[:]) {
		t.Fatalf("magic = %q", b[:6])
	}
	if v := binary.BigEndian.Uint16(b[6:8]); v != FormatVersion {
		t.Fatalf("version = %d, want %d", v, FormatVersion)
	}
	if l := binary.BigEndian.Uint64(b[8:16]); int(l) != len(b)-headerLen {
		t.Fatalf("declared payload %d, actual %d", l, len(b)-headerLen)
	}
}

func TestLoadReadsLegacyV0Stream(t *testing.T) {
	p := testProfile(t)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil { // the old Save
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load(v0): %v", err)
	}
	if q.Program != p.Program || q.WindowLen != p.WindowLen || len(q.Symbols) != len(p.Symbols) {
		t.Fatalf("v0 round trip diverged: %+v", q)
	}
	if q.SymbolOf(p.Symbols[0]) != 0 {
		t.Fatal("symbol index not rebuilt on v0 load")
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	p := testProfile(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{3, headerLen - 1, headerLen, headerLen + 10, len(full) - 1} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("Load accepted a %d-byte truncation of %d bytes", cut, len(full))
		}
	}
	if _, err := Load(bytes.NewReader(full[:len(full)-1])); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated payload: %v, want ErrCorrupt", err)
	}
}

// TestLoadRejectsTrailingBytes: a v1 stream is exactly its header plus the
// declared payload, so bytes appended to a saved profile make it corrupt
// for Load and Inspect alike, rather than a file that loads but whose
// reported size and CRC-32 cover bytes no decode read.
func TestLoadRejectsTrailingBytes(t *testing.T) {
	p := testProfile(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	padded := append(buf.Bytes(), "trailing"...)
	if _, err := Load(bytes.NewReader(padded)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Load with 8 trailing bytes: %v, want ErrCorrupt", err)
	}
	if _, _, err := Inspect(bytes.NewReader(padded)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Inspect with 8 trailing bytes: %v, want ErrCorrupt", err)
	}
}

func TestLoadRejectsBitFlip(t *testing.T) {
	p := testProfile(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[headerLen+len(b)/2] ^= 0x40
	if _, err := Load(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flipped payload: %v, want ErrCorrupt", err)
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	p := testProfile(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint16(b[6:8], FormatVersion+1)
	if _, err := Load(bytes.NewReader(b)); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("future version: %v, want ErrIncompatible", err)
	}
}

func TestLoadRejectsAbsurdDeclaredLength(t *testing.T) {
	var b [headerLen]byte
	copy(b[:6], magic[:])
	binary.BigEndian.PutUint16(b[6:8], FormatVersion)
	binary.BigEndian.PutUint64(b[8:16], 1<<40)
	if _, err := Load(bytes.NewReader(b[:])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("absurd length: %v, want ErrCorrupt", err)
	}
}

func TestLoadRejectsShapelessDecode(t *testing.T) {
	// A Profile gob that decodes cleanly but has no model must fail typed,
	// not surface later as a nil dereference in the detection engine.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&Profile{Program: "hollow"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("model-less profile: %v, want ErrCorrupt", err)
	}
}

func TestInspectChecksumMatchesSavedHeader(t *testing.T) {
	p := testProfile(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	headerSum := fmt.Sprintf("%08x", binary.BigEndian.Uint32(raw[16:20]))
	info, _, err := Inspect(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if info.Checksum != headerSum {
		t.Fatalf("Inspect checksum = %s, header records %s", info.Checksum, headerSum)
	}
	if info.FormatVersion != FormatVersion {
		t.Fatalf("Inspect version = %d", info.FormatVersion)
	}
	if info.Program != p.Program || info.WindowLen != p.WindowLen {
		t.Fatalf("Inspect summary diverged: %+v", info)
	}
}

func TestInspectLegacyStream(t *testing.T) {
	p := testProfile(t)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		t.Fatal(err)
	}
	info, _, err := Inspect(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.FormatVersion != 0 {
		t.Fatalf("legacy stream reported version %d", info.FormatVersion)
	}
}
