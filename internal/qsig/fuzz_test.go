package qsig

import (
	"strings"
	"testing"
)

// FuzzNormalize checks the signature normaliser on arbitrary query text:
// never panics, is idempotent-ish (a normalised signature maps to itself up
// to the '?' placeholders), and is insensitive to literal values. Appending
// a signature to a buffer leaves what the buffer held alone.
func FuzzNormalize(f *testing.F) {
	f.Add("SELECT * FROM t WHERE a = 'x' AND b > 42")
	f.Add("INSERT INTO t VALUES ('O''Brien', 3)")
	f.Add("'unterminated")
	f.Add("  WeIrD   CaSe  ")
	f.Add("\vSELECT 1 \u00a0")
	f.Fuzz(func(t *testing.T, sql string) {
		sig := Normalize(sql)
		// Stability: normalising a signature must be a fixed point (the
		// placeholder '?' contains no literals to rewrite).
		if again := Normalize(sig); again != sig {
			t.Errorf("Normalize not stable: %q -> %q -> %q", sql, sig, again)
		}
		if strings.Contains(sig, "  ") {
			t.Errorf("unsquashed whitespace in %q", sig)
		}
		const prefix = "prefix \v"
		if got := string(AppendNormalized([]byte(prefix), sql)); got != prefix+sig {
			t.Errorf("AppendNormalized(%q, %q) = %q, want %q", prefix, sql, got, prefix+sig)
		}
	})
}
