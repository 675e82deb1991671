package minidb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func seedClients(t *testing.T) *Database {
	t.Helper()
	db := New()
	db.MustExec("CREATE TABLE clients (id INT, name TEXT, balance INT)")
	for i := 1; i <= 20; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO clients VALUES (%d, 'client%02d', %d)", 100+i, i, i*500))
	}
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := seedClients(t)
	res, err := db.Exec("SELECT * FROM clients WHERE id = 105")
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if res.NTuples() != 1 {
		t.Fatalf("NTuples = %d, want 1", res.NTuples())
	}
	if got, want := res.Get(0, 1), "client05"; got != want {
		t.Errorf("Get(0,1) = %q, want %q", got, want)
	}
	if got, want := res.Cols, []string{"id", "name", "balance"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Cols = %v, want %v", got, want)
	}
}

func TestSelectProjectionAndOrdering(t *testing.T) {
	db := seedClients(t)
	res, err := db.Exec("SELECT name, balance FROM clients WHERE balance >= 9000 ORDER BY balance DESC")
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	want := [][]string{
		{"client20", "10000"},
		{"client19", "9500"},
		{"client18", "9000"},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("Rows = %v, want %v", res.Rows, want)
	}
}

func TestSelectLimit(t *testing.T) {
	db := seedClients(t)
	res, err := db.Exec("SELECT id FROM clients ORDER BY id LIMIT 3")
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if res.NTuples() != 3 || res.Get(0, 0) != "101" || res.Get(2, 0) != "103" {
		t.Errorf("unexpected limited rows %v", res.Rows)
	}
}

// TestLimitOutOfRange: a LIMIT that does not fit an int is a syntax error,
// as an out-of-range literal is. It used to read as LIMIT 0 and return no
// rows.
func TestLimitOutOfRange(t *testing.T) {
	db := seedClients(t)
	for _, n := range []string{"99999999999999999999", strconv.FormatUint(math.MaxInt+1, 10)} {
		q := "SELECT id FROM clients LIMIT " + n
		if _, err := db.Exec(q); !errors.Is(err, ErrSyntax) {
			t.Errorf("%s: err = %v, want ErrSyntax", q, err)
		}
	}
	for n, want := range map[string]int{"0": 0, "007": 7, strconv.Itoa(math.MaxInt): 20} {
		res, err := db.Exec("SELECT id FROM clients LIMIT " + n)
		if err != nil || res.NTuples() != want {
			t.Errorf("LIMIT %s: %d rows, %v; want %d rows", n, res.NTuples(), err, want)
		}
	}
}

// sscanfLiteral is how the parser read integer literals before intLiteral,
// kept as the reference: fmt.Sscanf's %d into an int64.
func sscanfLiteral(text string) (int64, bool) {
	var n int64
	_, err := fmt.Sscanf(text, "%d", &n)
	return n, err == nil
}

// TestIntLiteralMatchesSscanf: on every number token lex can produce, the
// literal parser accepts what the old fmt.Sscanf reading accepted and reads
// the same value, alone and inside a statement.
func TestIntLiteralMatchesSscanf(t *testing.T) {
	texts := []string{
		"0", "7", "42", "-42", "007", "-007", "-0", "000", "0000000000000000000000042",
		"9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "-9223372036854775809",
		"09223372036854775807", "18446744073709551616",
		"99999999999999999999", "-99999999999999999999",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		var sb strings.Builder
		if rng.Intn(2) == 0 {
			sb.WriteByte('-')
		}
		for n := 1 + rng.Intn(22); n > 0; n-- {
			sb.WriteByte(byte('0' + rng.Intn(10)))
		}
		texts = append(texts, sb.String())
	}
	for _, text := range texts {
		toks, err := lex(text)
		if err != nil || len(toks) != 2 || toks[0].kind != tokNumber || toks[0].text != text {
			t.Fatalf("lex(%q) = %v, %v; want one number token", text, toks, err)
		}
		want, ok := sscanfLiteral(text)
		got, err := intLiteral(toks[0], 64)
		if (err == nil) != ok || (ok && got != want) {
			t.Errorf("intLiteral(%q) = %d, %v; Sscanf read %d, accepted %v", text, got, err, want, ok)
		}
		stmt, err := Parse("INSERT INTO t VALUES (" + text + ")")
		switch {
		case !ok && !errors.Is(err, ErrSyntax):
			t.Errorf("VALUES (%s): err = %v, want ErrSyntax", text, err)
		case ok && err != nil:
			t.Errorf("VALUES (%s): %v", text, err)
		case ok && stmt.(*InsertStmt).Rows[0][0] != IntVal(want):
			t.Errorf("VALUES (%s) = %+v, want %d", text, stmt.(*InsertStmt).Rows[0][0], want)
		}
	}
}

func TestCountStar(t *testing.T) {
	db := seedClients(t)
	res, err := db.Exec("SELECT COUNT(*) FROM clients WHERE balance < 3000")
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if got := res.Get(0, 0); got != "5" {
		t.Errorf("count = %q, want 5", got)
	}
}

// TestTautologyInjection is the load-bearing behaviour for attack 3.1/5: a
// string-concatenated WHERE clause injected with 1' OR '1'='1 must match every
// row, which in turn multiplies the client's fetch/print loop iterations.
func TestTautologyInjection(t *testing.T) {
	db := seedClients(t)

	normalInput := "105"
	res, err := db.Exec("SELECT * FROM clients WHERE id='" + normalInput + "'")
	if err != nil {
		t.Fatalf("normal query: %v", err)
	}
	if res.NTuples() != 1 {
		t.Fatalf("normal input returned %d rows, want 1", res.NTuples())
	}

	maliciousInput := "1' OR '1'='1"
	res, err = db.Exec("SELECT * FROM clients WHERE id='" + maliciousInput + "'")
	if err != nil {
		t.Fatalf("injected query: %v", err)
	}
	if res.NTuples() != 20 {
		t.Fatalf("tautology returned %d rows, want all 20", res.NTuples())
	}
}

func TestWherePrecedenceAndNot(t *testing.T) {
	db := seedClients(t)
	// AND binds tighter than OR: matches id=101 plus (id>=118 and balance>9000).
	res, err := db.Exec("SELECT id FROM clients WHERE id = 101 OR id >= 118 AND balance > 9000 ORDER BY id")
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	got := flatten(res)
	want := []string{"101", "119", "120"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %v, want %v", got, want)
	}

	res, err = db.Exec("SELECT COUNT(*) FROM clients WHERE NOT (id = 101 OR id = 102)")
	if err != nil {
		t.Fatalf("not: %v", err)
	}
	if res.Get(0, 0) != "18" {
		t.Errorf("NOT count = %q, want 18", res.Get(0, 0))
	}
}

func TestUpdate(t *testing.T) {
	db := seedClients(t)
	res, err := db.Exec("UPDATE clients SET balance = 0, name = 'frozen' WHERE id <= 103")
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if res.Affected != 3 {
		t.Errorf("Affected = %d, want 3", res.Affected)
	}
	check := db.MustExec("SELECT name FROM clients WHERE balance = 0 ORDER BY id")
	if check.NTuples() != 3 || check.Get(0, 0) != "frozen" {
		t.Errorf("update not applied: %v", check.Rows)
	}
}

func TestDelete(t *testing.T) {
	db := seedClients(t)
	res, err := db.Exec("DELETE FROM clients WHERE balance > 9000")
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	if res.Affected != 2 {
		t.Errorf("Affected = %d, want 2", res.Affected)
	}
	if n, _ := db.RowCount("clients"); n != 18 {
		t.Errorf("RowCount = %d, want 18", n)
	}
}

func TestInsertMultiRowAndCoercion(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b TEXT)")
	res, err := db.Exec("INSERT INTO t VALUES (1, 'x'), ('42', 7), ('junk', 'y')")
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if res.Affected != 3 {
		t.Errorf("Affected = %d, want 3", res.Affected)
	}
	out := db.MustExec("SELECT a, b FROM t ORDER BY a")
	want := [][]string{{"0", "y"}, {"1", "x"}, {"42", "7"}}
	if !reflect.DeepEqual(out.Rows, want) {
		t.Errorf("Rows = %v, want %v", out.Rows, want)
	}
}

func TestNullHandling(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b TEXT)")
	db.MustExec("INSERT INTO t VALUES (1, NULL), (2, 'x')")
	res := db.MustExec("SELECT COUNT(*) FROM t WHERE b = NULL")
	if res.Get(0, 0) != "1" {
		t.Errorf("b = NULL count = %q, want 1", res.Get(0, 0))
	}
	res = db.MustExec("SELECT COUNT(*) FROM t WHERE b != NULL")
	if res.Get(0, 0) != "1" {
		t.Errorf("b != NULL count = %q, want 1", res.Get(0, 0))
	}
	res = db.MustExec("SELECT COUNT(*) FROM t WHERE b < NULL")
	if res.Get(0, 0) != "0" {
		t.Errorf("b < NULL count = %q, want 0", res.Get(0, 0))
	}
	res = db.MustExec("SELECT b FROM t WHERE a = 1")
	if res.Get(0, 0) != "NULL" {
		t.Errorf("NULL renders as %q", res.Get(0, 0))
	}
}

func TestNegativeNumbers(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("INSERT INTO t VALUES (-5), (3)")
	res := db.MustExec("SELECT a FROM t WHERE a < -1")
	if res.NTuples() != 1 || res.Get(0, 0) != "-5" {
		t.Errorf("negative select = %v", res.Rows)
	}
}

func TestStringEscapes(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (s TEXT)")
	db.MustExec("INSERT INTO t VALUES ('O''Brien')")
	res := db.MustExec("SELECT s FROM t WHERE s = 'O''Brien'")
	if res.NTuples() != 1 || res.Get(0, 0) != "O'Brien" {
		t.Errorf("escaped string select = %v", res.Rows)
	}
}

func TestErrors(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)")

	cases := []struct {
		query string
		want  error
	}{
		{"SELECT * FROM missing", ErrNoTable},
		{"SELECT nope FROM t", ErrNoColumn},
		{"SELECT * FROM t WHERE ghost = 1", ErrNoColumn},
		{"SELECT * FROM t ORDER BY ghost", ErrNoColumn},
		{"CREATE TABLE t (a INT)", ErrExists},
		{"INSERT INTO t VALUES (1, 2)", ErrBadInsert},
		{"INSERT INTO missing VALUES (1)", ErrNoTable},
		{"UPDATE missing SET a = 1", ErrNoTable},
		{"UPDATE t SET ghost = 1", ErrNoColumn},
		{"DELETE FROM missing", ErrNoTable},
		{"BOGUS STATEMENT", ErrSyntax},
		{"SELECT FROM t", ErrSyntax},
		{"SELECT * FROM t WHERE", ErrSyntax},
		{"SELECT * FROM t WHERE a ~ 1", ErrSyntax},
		{"SELECT * FROM t WHERE a = 'unterminated", ErrSyntax},
		{"SELECT * FROM t trailing garbage", ErrSyntax},
		{"CREATE TABLE u (a BLOB)", ErrSyntax},
	}
	for _, tc := range cases {
		if _, err := db.Exec(tc.query); !errors.Is(err, tc.want) {
			t.Errorf("Exec(%q) error = %v, want %v", tc.query, err, tc.want)
		}
	}
}

func TestGetOutOfRangeIsLenient(t *testing.T) {
	db := seedClients(t)
	res := db.MustExec("SELECT id FROM clients LIMIT 1")
	if got := res.Get(5, 0); got != "" {
		t.Errorf("out-of-range row Get = %q, want empty", got)
	}
	if got := res.Get(0, 9); got != "" {
		t.Errorf("out-of-range col Get = %q, want empty", got)
	}
	var nilRes *Result
	if nilRes.NTuples() != 0 || nilRes.Get(0, 0) != "" {
		t.Error("nil Result accessors not lenient")
	}
}

func TestTableNames(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE zebra (a INT)")
	db.MustExec("CREATE TABLE apple (a INT)")
	if got, want := db.TableNames(), []string{"apple", "zebra"}; !reflect.DeepEqual(got, want) {
		t.Errorf("TableNames = %v, want %v", got, want)
	}
	if _, err := db.RowCount("missing"); !errors.Is(err, ErrNoTable) {
		t.Errorf("RowCount(missing) error = %v", err)
	}
}

func TestMustExecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustExec on bad SQL did not panic")
		}
	}()
	New().MustExec("NOT SQL AT ALL")
}

// TestConcurrentAccess exercises the engine under the race detector: the
// monitored applications run concurrently with profile training in the
// experiment harness.
func TestConcurrentAccess(t *testing.T) {
	db := seedClients(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch i % 3 {
				case 0:
					if _, err := db.Exec("SELECT * FROM clients WHERE balance > 1000"); err != nil {
						t.Errorf("select: %v", err)
						return
					}
				case 1:
					if _, err := db.Exec(fmt.Sprintf("INSERT INTO clients VALUES (%d, 'w', 1)", 1000*w+i)); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				default:
					if _, err := db.Exec("UPDATE clients SET balance = 2 WHERE id = 101"); err != nil {
						t.Errorf("update: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestCompareValuesMixedTypes(t *testing.T) {
	cases := []struct {
		l, r Value
		want int
	}{
		{IntVal(5), IntVal(5), 0},
		{IntVal(4), IntVal(5), -1},
		{TextVal("abc"), TextVal("abd"), -1},
		{IntVal(105), TextVal("105"), 0},
		{TextVal("105"), IntVal(104), 1},
		{IntVal(5), TextVal("notnum"), -1}, // falls back to string compare: "5" < "notnum"
		{NullVal(), NullVal(), 0},
		{NullVal(), IntVal(1), -1},
		{IntVal(1), NullVal(), 1},
	}
	for _, tc := range cases {
		if got := compareValues(tc.l, tc.r); got != tc.want {
			t.Errorf("compareValues(%v, %v) = %d, want %d", tc.l, tc.r, got, tc.want)
		}
	}
}

func TestValueString(t *testing.T) {
	if got := IntVal(-3).String(); got != "-3" {
		t.Errorf("IntVal String = %q", got)
	}
	if got := TextVal("hi").String(); got != "hi" {
		t.Errorf("TextVal String = %q", got)
	}
	if got := NullVal().String(); got != "NULL" {
		t.Errorf("NullVal String = %q", got)
	}
	if got := TInt.String(); got != "INT" {
		t.Errorf("TInt String = %q", got)
	}
	if got := TText.String(); got != "TEXT" {
		t.Errorf("TText String = %q", got)
	}
}

func flatten(r *Result) []string {
	var out []string
	for _, row := range r.Rows {
		out = append(out, row...)
	}
	return out
}
