package minidb

import (
	"errors"
	"fmt"
)

// Transaction errors.
var (
	ErrTxActive = errors.New("minidb: transaction already active")
	ErrNoTx     = errors.New("minidb: no active transaction")
)

// txStmt is BEGIN, COMMIT, or ROLLBACK.
type txStmt struct {
	kind string // "begin" | "commit" | "rollback"
}

func (*txStmt) sqlStmt() {}

// Transactions give the client applications the paper describes ("different
// types of transactions containing DML queries") atomic multi-statement
// updates. The implementation is snapshot-based: BEGIN deep-copies the
// table data, ROLLBACK restores it, COMMIT discards the snapshot. One
// transaction per database at a time — the interpreter's programs are
// single-threaded clients, and nested transactions are a syntax error in
// the original engines too.

// Begin starts a transaction.
func (db *Database) Begin() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.snapshot != nil {
		return ErrTxActive
	}
	db.snapshot = copyTables(db.tables)
	return nil
}

// Clone returns an independent deep copy of db's current tables, outside
// any transaction: changes to either database never reach the other. The
// dataset apps seed one template database per process and hand each test
// case a clone, instead of re-parsing the seed SQL for every case.
func (db *Database) Clone() *Database {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return &Database{tables: copyTables(db.tables)}
}

// copyTables deep-copies a table set: Begin's snapshot and Clone's copy.
func copyTables(tables map[string]*table) map[string]*table {
	out := make(map[string]*table, len(tables))
	for name, t := range tables {
		ct := &table{name: t.name, cols: append([]Column(nil), t.cols...)}
		ct.rows = make([][]Value, len(t.rows))
		for i, row := range t.rows {
			ct.rows[i] = append([]Value(nil), row...)
		}
		out[name] = ct
	}
	return out
}

// Commit makes the transaction's changes permanent.
func (db *Database) Commit() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.snapshot == nil {
		return ErrNoTx
	}
	db.snapshot = nil
	return nil
}

// Rollback discards every change since Begin.
func (db *Database) Rollback() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.snapshot == nil {
		return ErrNoTx
	}
	db.tables = db.snapshot
	db.snapshot = nil
	return nil
}

// InTx reports whether a transaction is active.
func (db *Database) InTx() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.snapshot != nil
}

func (db *Database) execTx(s *txStmt) (*Result, error) {
	var err error
	switch s.kind {
	case "begin":
		err = db.Begin()
	case "commit":
		err = db.Commit()
	case "rollback":
		err = db.Rollback()
	default:
		err = fmt.Errorf("%w: unknown transaction statement %q", ErrSyntax, s.kind)
	}
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}
