package minidb

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the SQL front end: it must never panic,
// every number token must read as the old fmt.Sscanf reading did, and
// whatever parses must also execute (or fail cleanly) against a seeded
// schema. Run with `go test -fuzz=FuzzParse ./internal/minidb` to explore;
// the seed corpus runs on every plain `go test`.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT * FROM t",
		"SELECT a, b FROM t WHERE a = 1 ORDER BY b DESC LIMIT 3",
		"SELECT COUNT(*) FROM t WHERE a IN (1, 2, 3)",
		"SELECT dept, SUM(price) FROM t GROUP BY dept",
		"INSERT INTO t VALUES (1, 'x'), (2, NULL)",
		"UPDATE t SET a = 5 WHERE b LIKE 'x%'",
		"DELETE FROM t WHERE a BETWEEN 1 AND 9",
		"CREATE TABLE u (a INT, b TEXT)",
		"BEGIN", "COMMIT", "ROLLBACK",
		"SELECT * FROM t WHERE a = '1' OR '1'='1'",
		"SELECT * FROM t WHERE NOT (a = 1 AND b != 'x')",
		"' OR 1=1 --", "SELECT", "((((", "SELECT * FROM t WHERE a = 'unterminated",
		// Number literals at the edges of int64 and LIMIT's int.
		"INSERT INTO t VALUES (007, 'x'), (-0, 'y')",
		"SELECT * FROM t WHERE a = 9223372036854775807 OR a = -9223372036854775808",
		"SELECT * FROM t WHERE a = 9223372036854775808",
		"SELECT * FROM t WHERE a = -9223372036854775809",
		"SELECT * FROM t LIMIT 00000000000000000003",
		"SELECT * FROM t LIMIT 99999999999999999999",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, query string) {
		if toks, err := lex(query); err == nil {
			for _, tok := range toks {
				if tok.kind != tokNumber {
					continue
				}
				want, ok := sscanfLiteral(tok.text)
				if got, err := intLiteral(tok, 64); (err == nil) != ok || (ok && got != want) {
					t.Errorf("intLiteral(%q) = %d, %v; Sscanf read %d, accepted %v", tok.text, got, err, want, ok)
				}
			}
		}
		stmt, err := Parse(query)
		if err != nil {
			return // rejection is fine; panics are not
		}
		_ = stmt
		db := New()
		db.MustExec("CREATE TABLE t (a INT, b TEXT)")
		db.MustExec("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
		// Execution may fail (unknown table/column) but must not panic.
		if _, err := db.Exec(query); err != nil &&
			!strings.Contains(err.Error(), "minidb:") {
			t.Errorf("non-package error from Exec(%q): %v", query, err)
		}
	})
}

// FuzzLikeMatch checks the LIKE matcher never panics or loops, and that
// wildcard-free patterns behave as equality.
func FuzzLikeMatch(f *testing.F) {
	f.Add("a%c", "abc")
	f.Add("%", "")
	f.Add("_", "x")
	f.Add("a%b%c%", "aXbYcZ")
	f.Fuzz(func(t *testing.T, pattern, s string) {
		got := likeMatch(pattern, s)
		if !strings.ContainsAny(pattern, "%_") {
			if want := pattern == s; got != want {
				t.Errorf("likeMatch(%q, %q) = %v, want %v", pattern, s, got, want)
			}
		}
	})
}
