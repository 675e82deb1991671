package ingest

// maxIntern caps a connection's intern table. A connection's live
// vocabulary — its tenants, open sessions, call labels, names and callers —
// is a few hundred strings, but a collector that opens a fresh session per
// program run adds one entry per run for as long as the connection lives.
// Once the table holds maxIntern entries it is emptied and refills from the
// strings that keep arriving, so a long-lived or hostile peer cannot grow
// server memory without bound.
const maxIntern = 4096

// interner is a per-connection string table: each recurring string is
// allocated once, and a lookup from a byte slice does not allocate. Not
// safe for concurrent use; each decoder owns one.
type interner map[string]string

// bytes returns the interned copy of b, allocating only on first sight.
func (t interner) bytes(b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	t.add(s)
	return s
}

// str returns the interned copy of s, adopting s on first sight.
func (t interner) str(s string) string {
	if s == "" {
		return ""
	}
	if got, ok := t[s]; ok {
		return got
	}
	t.add(s)
	return s
}

func (t interner) add(s string) {
	if len(t) >= maxIntern {
		clear(t)
	}
	t[s] = s
}
