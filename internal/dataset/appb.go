package dataset

import (
	"fmt"

	"adprom/internal/ir"
	"adprom/internal/minidb"
)

// AppB is the CA-dataset's small banking system (paper Table III: a MySQL
// client). Its account lookup deliberately reproduces the paper's Figure 2
// vulnerability: the query is assembled with strcpy/strcat from raw user
// input instead of a prepared statement, so a tautology injection
// (1' OR '1'='1) retrieves every client record — the paper's attack 5.
//
// Operations (first input token):
//
//	1 <accNo>             vulnerable account lookup (Figure 2)
//	2 <accNo> <amount>    deposit (UPDATE) with confirmation
//	3 <accNo> <amount>    withdrawal with an overdraft branch
//	4 <from> <to> <amt>   transfer between accounts
//	5 <accNo>             print a statement (transaction loop)
//	6                     interest report over all accounts
//	anything else         help text
func AppB() *App {
	return &App{
		Name:      "appb",
		DBMS:      "MySQL",
		Prog:      buildAppB(),
		FreshDB:   freshAppBDB,
		TestCases: appBTestCases(),
	}
}

var freshAppBDB = templateClones(appBDB)

func appBDB() *minidb.Database {
	db := minidb.New()
	db.MustExec("CREATE TABLE clients (id INT, name TEXT, balance INT)")
	db.MustExec("CREATE TABLE transactions (id INT, client_id INT, amount INT, kind TEXT)")
	for i := 1; i <= 25; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO clients VALUES (%d, 'client%02d', %d)",
			100+i, i, i*400))
		for j := 0; j < i%4; j++ {
			db.MustExec(fmt.Sprintf("INSERT INTO transactions VALUES (%d, %d, %d, '%s')",
				i*10+j, 100+i, (j+1)*50, []string{"dep", "wd"}[j%2]))
		}
	}
	return db
}

func buildAppB() *ir.Program {
	b := ir.NewBuilder("appb")

	// lookupAccount(conn, accNo): the Figure 2 vulnerable lookup — raw
	// string concatenation, fetch loop, per-field printing.
	{
		f := b.Func("lookupAccount", "conn", "accNo")
		e := f.Block()
		rowLoop := f.Block()
		rowBody := f.Block()
		fieldLoop := f.Block()
		fieldBody := f.Block()
		done := f.Block()

		e.CallTo("query", "strcpy", ir.S("SELECT * FROM clients WHERE id='"))
		e.CallTo("query", "strcat", ir.V("query"), ir.V("accNo"))
		e.CallTo("query", "strcat", ir.V("query"), ir.S("'"))
		e.CallTo("st", "mysql_query", ir.V("conn"), ir.V("query"))
		e.CallTo("result", "mysql_store_result", ir.V("conn"))
		e.CallTo("nf", "mysql_num_fields", ir.V("result"))
		e.Goto(rowLoop)

		rowLoop.CallTo("row", "mysql_fetch_row", ir.V("result"))
		rowLoop.If(ir.V("row"), rowBody, done)
		rowBody.Assign("i", ir.I(0))
		rowBody.Goto(fieldLoop)
		fieldLoop.If(ir.Lt(ir.V("i"), ir.V("nf")), fieldBody, rowLoop)
		fieldBody.Call("printf", ir.S("%s "), ir.At(ir.V("row"), ir.V("i")))
		fieldBody.Assign("i", ir.Add(ir.V("i"), ir.I(1)))
		fieldBody.Goto(fieldLoop)

		done.Call("mysql_free_result", ir.V("result"))
		done.Call("printf", ir.S("\n"))
		done.Ret()
	}

	// deposit(conn, accNo, amount): UPDATE plus confirmation.
	{
		f := b.Func("deposit", "conn", "accNo", "amount")
		e := f.Block()
		ok := f.Block()
		fail := f.Block()
		fin := f.Block()
		e.CallTo("st", "mysql_query", ir.V("conn"),
			ir.Cat(ir.S("UPDATE clients SET balance = "), ir.V("amount"),
				ir.S(" WHERE id = "), ir.V("accNo")))
		e.If(ir.Eq(ir.V("st"), ir.I(0)), ok, fail)
		ok.Call("printf", ir.S("deposited %s to %s\n"), ir.V("amount"), ir.V("accNo"))
		ok.Goto(fin)
		fail.CallTo("msg", "mysql_error", ir.V("conn"))
		fail.Call("printf", ir.S("deposit failed: %s\n"), ir.V("msg"))
		fail.Goto(fin)
		fin.Ret()
	}

	// withdraw(conn, accNo, amount): balance check with an overdraft branch.
	{
		f := b.Func("withdraw", "conn", "accNo", "amount")
		e := f.Block()
		have := f.Block()
		overdraft := f.Block()
		apply := f.Block()
		fin := f.Block()
		e.CallTo("st", "mysql_query", ir.V("conn"),
			ir.Cat(ir.S("SELECT balance FROM clients WHERE id = "), ir.V("accNo")))
		e.CallTo("result", "mysql_store_result", ir.V("conn"))
		e.CallTo("row", "mysql_fetch_row", ir.V("result"))
		e.If(ir.V("row"), have, fin)
		have.CallTo("bal", "atoi", ir.At(ir.V("row"), ir.I(0)))
		have.CallTo("amt", "atoi", ir.V("amount"))
		have.If(ir.Lt(ir.V("bal"), ir.V("amt")), overdraft, apply)
		overdraft.Call("printf", ir.S("insufficient funds: %d\n"), ir.V("bal"))
		overdraft.Goto(fin)
		apply.CallTo("st2", "mysql_query", ir.V("conn"),
			ir.Cat(ir.S("UPDATE clients SET balance = "), ir.Sub(ir.V("bal"), ir.V("amt")),
				ir.S(" WHERE id = "), ir.V("accNo")))
		apply.Call("printf", ir.S("withdrew %s\n"), ir.V("amount"))
		apply.Goto(fin)
		fin.Call("mysql_free_result", ir.V("result"))
		fin.Ret()
	}

	// transfer(conn, from, to, amt): two updates plus an audit transaction.
	{
		f := b.Func("transfer", "conn", "from", "to", "amt")
		e := f.Block()
		e.Invoke("withdraw", ir.V("conn"), ir.V("from"), ir.V("amt"))
		e.Invoke("deposit", ir.V("conn"), ir.V("to"), ir.V("amt"))
		e.CallTo("st", "mysql_query", ir.V("conn"),
			ir.Cat(ir.S("INSERT INTO transactions VALUES (999, "), ir.V("from"),
				ir.S(", "), ir.V("amt"), ir.S(", 'xfer')")))
		e.Call("printf", ir.S("transfer complete\n"))
		e.Ret()
	}

	// statement(conn, accNo): print the account's transactions.
	{
		f := b.Func("statement", "conn", "accNo")
		e := f.Block()
		loop := f.Block()
		body := f.Block()
		done := f.Block()
		e.CallTo("st", "mysql_query", ir.V("conn"),
			ir.Cat(ir.S("SELECT kind, amount FROM transactions WHERE client_id = "),
				ir.V("accNo"), ir.S(" ORDER BY id")))
		e.CallTo("result", "mysql_store_result", ir.V("conn"))
		e.Call("printf", ir.S("statement for %s:\n"), ir.V("accNo"))
		e.Goto(loop)
		loop.CallTo("row", "mysql_fetch_row", ir.V("result"))
		loop.If(ir.V("row"), body, done)
		body.Call("printf", ir.S("  %s %s\n"), ir.At(ir.V("row"), ir.I(0)), ir.At(ir.V("row"), ir.I(1)))
		body.Goto(loop)
		done.Call("mysql_free_result", ir.V("result"))
		done.Ret()
	}

	// interestReport(conn): aggregate over all accounts, branch on volume.
	{
		f := b.Func("interestReport", "conn")
		e := f.Block()
		loop := f.Block()
		body := f.Block()
		rich := f.Block()
		modest := f.Block()
		next := f.Block()
		done := f.Block()
		e.CallTo("st", "mysql_query", ir.V("conn"),
			ir.S("SELECT id, balance FROM clients ORDER BY balance DESC LIMIT 12"))
		e.CallTo("result", "mysql_store_result", ir.V("conn"))
		e.Goto(loop)
		loop.CallTo("row", "mysql_fetch_row", ir.V("result"))
		loop.If(ir.V("row"), body, done)
		body.CallTo("bal", "atoi", ir.At(ir.V("row"), ir.I(1)))
		body.If(ir.Gt(ir.V("bal"), ir.I(7000)), rich, modest)
		// The rich branch prints a banner and then the account's data; the
		// modest branch prints only the banner. Attack 1 (§V-C) inserts a
		// copy of the rich branch's data print into the modest branch: the
		// call-name sequence then matches the rich path exactly, and only
		// the _Q block-id label tells the two apart.
		rich.Call("printf", ir.S("premium account:\n"))
		rich.Call("printf", ir.S("  %s holds %s\n"), ir.At(ir.V("row"), ir.I(0)), ir.At(ir.V("row"), ir.I(1)))
		rich.Goto(next)
		modest.Call("printf", ir.S("standard account\n"))
		modest.Goto(next)
		next.Goto(loop)
		done.Call("mysql_free_result", ir.V("result"))
		done.Ret()
	}

	// help().
	{
		f := b.Func("help")
		e := f.Block()
		e.Call("puts", ir.S("1 lookup | 2 deposit | 3 withdraw | 4 transfer | 5 statement | 6 interest"))
		e.Ret()
	}

	// main dispatcher.
	{
		m := b.Func("main")
		e := m.Block()
		op1 := m.Block()
		n1 := m.Block()
		op2 := m.Block()
		n2 := m.Block()
		op3 := m.Block()
		n3 := m.Block()
		op4 := m.Block()
		n4 := m.Block()
		op5 := m.Block()
		n5 := m.Block()
		op6 := m.Block()
		other := m.Block()
		done := m.Block()

		e.CallTo("conn", "mysql_real_connect")
		e.CallTo("opTok", "scanf", ir.S("%d"))
		e.CallTo("op", "atoi", ir.V("opTok"))
		e.If(ir.Eq(ir.V("op"), ir.I(1)), op1, n1)

		op1.CallTo("accNo", "scanf", ir.S("%s"))
		op1.Invoke("lookupAccount", ir.V("conn"), ir.V("accNo"))
		op1.Goto(done)

		n1.If(ir.Eq(ir.V("op"), ir.I(2)), op2, n2)
		op2.CallTo("accNo", "scanf", ir.S("%s"))
		op2.CallTo("amount", "scanf", ir.S("%s"))
		op2.Invoke("deposit", ir.V("conn"), ir.V("accNo"), ir.V("amount"))
		op2.Goto(done)

		n2.If(ir.Eq(ir.V("op"), ir.I(3)), op3, n3)
		op3.CallTo("accNo", "scanf", ir.S("%s"))
		op3.CallTo("amount", "scanf", ir.S("%s"))
		op3.Invoke("withdraw", ir.V("conn"), ir.V("accNo"), ir.V("amount"))
		op3.Goto(done)

		n3.If(ir.Eq(ir.V("op"), ir.I(4)), op4, n4)
		op4.CallTo("from", "scanf", ir.S("%s"))
		op4.CallTo("to", "scanf", ir.S("%s"))
		op4.CallTo("amt", "scanf", ir.S("%s"))
		op4.Invoke("transfer", ir.V("conn"), ir.V("from"), ir.V("to"), ir.V("amt"))
		op4.Goto(done)

		n4.If(ir.Eq(ir.V("op"), ir.I(5)), op5, n5)
		op5.CallTo("accNo", "scanf", ir.S("%s"))
		op5.Invoke("statement", ir.V("conn"), ir.V("accNo"))
		op5.Goto(done)

		n5.If(ir.Eq(ir.V("op"), ir.I(6)), op6, other)
		op6.Invoke("interestReport", ir.V("conn"))
		op6.Goto(done)

		other.Invoke("help")
		other.Goto(done)

		done.Call("mysql_close", ir.V("conn"))
		done.Ret()
	}

	return b.MustBuild()
}

func appBTestCases() []TestCase {
	var cases []TestCase
	add := func(name string, input ...string) {
		cases = append(cases, TestCase{Name: name, Input: input})
	}
	// 73 cases mirroring Table III's App_b count.
	for i := 1; i <= 20; i++ {
		add(fmt.Sprintf("lookup-%d", i), "1", fmt.Sprintf("%d", 100+i))
	}
	add("lookup-missing", "1", "999")
	for i := 1; i <= 12; i++ {
		add(fmt.Sprintf("deposit-%d", i), "2", fmt.Sprintf("%d", 100+i), fmt.Sprintf("%d", i*100))
	}
	for i := 1; i <= 12; i++ {
		add(fmt.Sprintf("withdraw-%d", i), "3", fmt.Sprintf("%d", 100+i), fmt.Sprintf("%d", i*150))
	}
	for i := 1; i <= 10; i++ {
		add(fmt.Sprintf("transfer-%d", i), "4",
			fmt.Sprintf("%d", 100+i), fmt.Sprintf("%d", 101+i), fmt.Sprintf("%d", i*30))
	}
	for i := 1; i <= 14; i++ {
		add(fmt.Sprintf("statement-%d", i), "5", fmt.Sprintf("%d", 100+i))
	}
	for i := 0; i < 3; i++ {
		add(fmt.Sprintf("interest-%d", i), "6")
	}
	add("help", "9")
	return cases
}
