// Package qsig implements the query-signature mitigation the paper proposes
// for its first limitation (§VII): an attacker who knows AD-PROM trains on
// call traces alone can issue a *different* query with similar selectivity —
// the call sequence is unchanged, so the HMM sees nothing. Recording query
// signatures along with library calls closes that gap.
//
// A signature is the query text with every literal normalised away, so the
// same prepared-statement shape matches regardless of parameter values,
// while a query against a different table or column set does not.
package qsig

import (
	"bytes"
	"sort"
	"strings"

	"adprom/internal/interp"
)

// Normalize reduces a query to its signature: string literals become '?',
// numeric literals become ?, whitespace collapses, and keywords lower-case.
func Normalize(sql string) string {
	return string(AppendNormalized(nil, sql))
}

// AppendNormalized appends the signature Normalize returns for sql to dst
// and returns the extended buffer. Into a buffer with room it allocates
// nothing, so a scorer can derive every query's signature in scratch memory
// it owns and look the signature up by those bytes.
func AppendNormalized(dst []byte, sql string) []byte {
	start := len(dst)
	i := 0
	lastSpace := true
	for i < len(sql) {
		c := sql[i]
		switch {
		case c == '\'':
			// Skip the string literal ('' escapes included).
			i++
			for i < len(sql) {
				if sql[i] == '\'' {
					if i+1 < len(sql) && sql[i+1] == '\'' {
						i += 2
						continue
					}
					i++
					break
				}
				i++
			}
			dst = append(dst, "'?'"...)
			lastSpace = false
		case c >= '0' && c <= '9':
			for i < len(sql) && sql[i] >= '0' && sql[i] <= '9' {
				i++
			}
			dst = append(dst, '?')
			lastSpace = false
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			if !lastSpace {
				dst = append(dst, ' ')
				lastSpace = true
			}
			i++
		default:
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
			lastSpace = false
			i++
		}
	}
	// Trim what the loop cannot see coming: a trailing separator and any
	// other Unicode space (a vertical tab, a no-break space) at either end.
	sig := bytes.TrimSpace(dst[start:])
	return dst[:start+copy(dst[start:], sig)]
}

// Tables extracts the table names a query touches: the identifiers following
// FROM, JOIN, INTO, and UPDATE in the normalised signature, lower-cased,
// deduplicated, and sorted. It is a lexical scan, not a SQL parser — good
// enough to classify the flat statements application libraries issue, which
// is all the risk model needs.
func Tables(sql string) []string {
	fields := strings.Fields(Normalize(sql))
	seen := map[string]bool{}
	var out []string
	expect := false
	for _, f := range fields {
		switch f {
		case "from", "join", "into", "update":
			expect = true
			continue
		}
		if !expect {
			continue
		}
		expect = false
		// Strip trailing punctuation (commas, parens, semicolons) and a
		// leading paren from subqueries; "(select" yields nothing.
		name := strings.Trim(f, "(),;")
		if name == "" || name == "select" || name == "?" {
			continue
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// maxColumns bounds the identifiers Columns returns, so a hostile query
// with an enormous projection list cannot make feature extraction allocate
// without limit.
const maxColumns = 64

// columnKeywords are select-list tokens that are not column references.
var columnKeywords = map[string]bool{
	"select": true, "distinct": true, "as": true, "all": true,
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// Columns extracts the column identifiers in a query's SELECT projection,
// lower-cased, deduplicated, and sorted. `SELECT *` yields ["*"]. Like
// Tables it is a bounded lexical scan, not a parser: aggregate arguments
// count as columns (sum(balance) yields "balance"), and at most 64 distinct
// identifiers are returned. Non-SELECT statements yield nil.
func Columns(sql string) []string {
	fields := strings.Fields(Normalize(sql))
	if len(fields) == 0 || fields[0] != "select" {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	add := func(name string) {
		if name == "" || name == "?" || name == "'?'" || columnKeywords[name] || seen[name] {
			return
		}
		if len(out) >= maxColumns {
			return
		}
		seen[name] = true
		out = append(out, name)
	}
	inList := false
	for _, f := range fields {
		switch f {
		case "select":
			inList = true
			continue
		case "from":
			inList = false
			continue
		}
		if !inList {
			continue
		}
		if strings.Contains(f, "*") {
			add("*")
			continue
		}
		// Split compound tokens — "count(id)," yields "count" and "id" —
		// and keep the identifier parts.
		for len(f) > 0 {
			cut := strings.IndexAny(f, "(),;")
			var part string
			if cut < 0 {
				part, f = f, ""
			} else {
				part, f = f[:cut], f[cut+1:]
			}
			add(part)
		}
	}
	sort.Strings(out)
	return out
}

// SensitiveTables is a set of table names whose queries mark a session as
// touching sensitive data. Used by the risk-aware shedding tier to keep
// sessions that read protected tables out of the shed pool.
type SensitiveTables map[string]bool

// NewSensitiveTables builds the set from a list of names (case-insensitive).
func NewSensitiveTables(names ...string) SensitiveTables {
	s := make(SensitiveTables, len(names))
	for _, n := range names {
		s[strings.ToLower(strings.TrimSpace(n))] = true
	}
	return s
}

// Touches reports whether the query reads or writes any sensitive table.
func (s SensitiveTables) Touches(sql string) bool {
	if len(s) == 0 {
		return false
	}
	for _, t := range Tables(sql) {
		if s[t] {
			return true
		}
	}
	return false
}

// SensitiveLabels derives the set of call labels that issued a query against
// a sensitive table, from a training run's query log. A label here is the
// issuing origin's function name — the observation symbol the detection
// runtime sees — so the result plugs directly into shed.Config
// SensitiveLabels / detect.Engine.SetSensitiveLabels.
func SensitiveLabels(records []interp.QueryRecord, tables SensitiveTables) map[string]bool {
	out := map[string]bool{}
	for _, r := range records {
		if tables.Touches(r.SQL) {
			out[r.Origin.Func] = true
		}
	}
	return out
}

// Violation is a query whose signature (or issuing site) was never seen in
// training.
type Violation struct {
	Record interp.QueryRecord
	// Signature is the normalised form that failed the check.
	Signature string
	// UnknownSite reports that even the issuing call site is new.
	UnknownSite bool
}

// Auditor learns the signature set of an application's normal queries and
// checks later runs against it.
type Auditor struct {
	// known maps signature → set of issuing origins.
	known map[string]map[interp.Origin]bool
}

// NewAuditor returns an empty auditor.
func NewAuditor() *Auditor {
	return &Auditor{known: map[string]map[interp.Origin]bool{}}
}

// Learn records the signatures of a training run's query log.
func (a *Auditor) Learn(records []interp.QueryRecord) {
	for _, r := range records {
		sig := Normalize(r.SQL)
		set, ok := a.known[sig]
		if !ok {
			set = map[interp.Origin]bool{}
			a.known[sig] = set
		}
		set[r.Origin] = true
	}
}

// Signatures returns the learned signatures, sorted.
func (a *Auditor) Signatures() []string {
	out := make([]string, 0, len(a.known))
	for s := range a.known {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Check returns one Violation per query whose signature was not learned, or
// whose signature is known but was never issued from that call site (a
// reused query in attacker-added code).
func (a *Auditor) Check(records []interp.QueryRecord) []Violation {
	var out []Violation
	for _, r := range records {
		sig := Normalize(r.SQL)
		origins, ok := a.known[sig]
		if !ok {
			out = append(out, Violation{Record: r, Signature: sig, UnknownSite: true})
			continue
		}
		if !origins[r.Origin] {
			out = append(out, Violation{Record: r, Signature: sig})
		}
	}
	return out
}
