package minidb

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestTransactionCommit(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("INSERT INTO t VALUES (1)")
	db.MustExec("BEGIN")
	db.MustExec("INSERT INTO t VALUES (2)")
	db.MustExec("UPDATE t SET a = 10 WHERE a = 1")
	if !db.InTx() {
		t.Fatal("InTx = false inside transaction")
	}
	db.MustExec("COMMIT")
	if db.InTx() {
		t.Fatal("InTx = true after commit")
	}
	res := db.MustExec("SELECT a FROM t ORDER BY a")
	if got := flatten(res); len(got) != 2 || got[0] != "2" || got[1] != "10" {
		t.Errorf("after commit: %v", got)
	}
}

func TestTransactionRollback(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("INSERT INTO t VALUES (1)")
	db.MustExec("BEGIN TRANSACTION")
	db.MustExec("DELETE FROM t")
	db.MustExec("INSERT INTO t VALUES (99)")
	if n, _ := db.RowCount("t"); n != 1 {
		t.Fatalf("mid-tx rows = %d", n)
	}
	db.MustExec("ROLLBACK")
	res := db.MustExec("SELECT a FROM t")
	if got := flatten(res); len(got) != 1 || got[0] != "1" {
		t.Errorf("after rollback: %v", got)
	}
}

func TestTransactionErrors(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)")
	if _, err := db.Exec("COMMIT"); !errors.Is(err, ErrNoTx) {
		t.Errorf("commit without tx: %v", err)
	}
	if _, err := db.Exec("ROLLBACK"); !errors.Is(err, ErrNoTx) {
		t.Errorf("rollback without tx: %v", err)
	}
	db.MustExec("BEGIN")
	if _, err := db.Exec("BEGIN"); !errors.Is(err, ErrTxActive) {
		t.Errorf("nested begin: %v", err)
	}
	db.MustExec("ROLLBACK")
}

func TestRollbackRestoresCreatedTables(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("BEGIN")
	db.MustExec("CREATE TABLE scratch (x INT)")
	db.MustExec("ROLLBACK")
	if _, err := db.Exec("SELECT * FROM scratch"); !errors.Is(err, ErrNoTable) {
		t.Errorf("scratch survived rollback: %v", err)
	}
	if _, err := db.Exec("SELECT * FROM t"); err != nil {
		t.Errorf("original table lost: %v", err)
	}
}

// dumpTables renders every row of every table of db, tables in name order.
func dumpTables(t *testing.T, db *Database) []string {
	t.Helper()
	var out []string
	for _, name := range db.TableNames() {
		for _, row := range db.MustExec("SELECT * FROM " + name).Rows {
			out = append(out, name+": "+strings.Join(row, ","))
		}
	}
	return out
}

// writeEverything runs each kind of write on db: insert, update, delete,
// create, and a transaction that empties a table and then rolls back.
func writeEverything(db *Database) {
	db.MustExec("INSERT INTO clients VALUES (999, 'intruder', 1)")
	db.MustExec("UPDATE clients SET balance = 0, name = 'zeroed' WHERE id < 106")
	db.MustExec("DELETE FROM clients WHERE id > 115")
	db.MustExec("CREATE TABLE extra (a INT)")
	db.MustExec("INSERT INTO extra VALUES (1)")
	db.MustExec("BEGIN")
	db.MustExec("DELETE FROM clients")
	db.MustExec("UPDATE extra SET a = 2")
	db.MustExec("ROLLBACK")
}

// TestCloneIsIndependent holds Clone to a deep copy: writes on the clone,
// rolled-back ones included, leave the source as it was, and the other way
// round.
func TestCloneIsIndependent(t *testing.T) {
	for _, side := range []string{"clone", "source"} {
		t.Run("write "+side, func(t *testing.T) {
			src := seedClients(t)
			want := dumpTables(t, src)
			clone := src.Clone()
			if got := dumpTables(t, clone); !reflect.DeepEqual(got, want) {
				t.Fatalf("clone differs from its source:\n got %q\nwant %q", got, want)
			}
			written, other := clone, src
			if side == "source" {
				written, other = src, clone
			}
			writeEverything(written)
			if got := dumpTables(t, other); !reflect.DeepEqual(got, want) {
				t.Errorf("writes on the %s reached the other database:\n got %q\nwant %q", side, got, want)
			}
			if got := dumpTables(t, written); reflect.DeepEqual(got, want) {
				t.Errorf("writes on the %s changed nothing", side)
			}
		})
	}
	t.Run("mid-transaction", func(t *testing.T) {
		src := seedClients(t)
		src.MustExec("BEGIN")
		src.MustExec("DELETE FROM clients WHERE id > 110")
		clone := src.Clone()
		src.MustExec("ROLLBACK")
		if clone.InTx() {
			t.Error("clone of a database inside a transaction is inside one too")
		}
		if n, _ := clone.RowCount("clients"); n != 10 {
			t.Errorf("clone holds %d clients, want the 10 left uncommitted at Clone", n)
		}
		if n, _ := src.RowCount("clients"); n != 20 {
			t.Errorf("source holds %d clients after rollback, want 20", n)
		}
	})
}
