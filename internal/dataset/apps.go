package dataset

import (
	"fmt"

	"adprom/internal/ir"
	"adprom/internal/minidb"
)

// AppS is the CA-dataset's supermarket management system (paper Table III: a
// MySQL client). It is the largest of the three hand-written clients: price
// lookups, sales with stock updates, an inventory walk, a restock report
// written to a file, and a daily summary mixing TD-dependent and constant
// output.
//
// Operations (first input token):
//
//	1 <pid>          price lookup
//	2 <pid> <qty>    sell: stock check, UPDATE, receipt print
//	3                full inventory walk
//	4 <threshold>    restock report, written to restock.txt
//	5                daily sales summary (COUNT + join-ish loop)
//	6 <pid> <qty>    restock delivery (UPDATE)
//	anything else    help
func AppS() *App {
	return &App{
		Name:      "apps",
		DBMS:      "MySQL",
		Prog:      buildAppS(),
		FreshDB:   freshAppSDB,
		TestCases: appSTestCases(),
	}
}

var freshAppSDB = templateClones(appSDB)

func appSDB() *minidb.Database {
	db := minidb.New()
	db.MustExec("CREATE TABLE products (id INT, name TEXT, price INT, stock INT)")
	db.MustExec("CREATE TABLE sales (id INT, product_id INT, qty INT)")
	names := []string{"milk", "bread", "eggs", "rice", "beans", "tea", "soap", "salt"}
	for i := 1; i <= 40; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO products VALUES (%d, '%s%d', %d, %d)",
			i, names[i%len(names)], i, 10+i*3, i*2%30))
		if i%3 == 0 {
			db.MustExec(fmt.Sprintf("INSERT INTO sales VALUES (%d, %d, %d)", i, i, i%5+1))
		}
	}
	return db
}

func buildAppS() *ir.Program {
	b := ir.NewBuilder("apps")

	// priceOf(conn, pid) returns the price string (tainted return).
	{
		f := b.Func("priceOf", "conn", "pid")
		e := f.Block()
		have := f.Block()
		miss := f.Block()
		e.CallTo("st", "mysql_query", ir.V("conn"),
			ir.Cat(ir.S("SELECT price FROM products WHERE id = "), ir.V("pid")))
		e.CallTo("result", "mysql_store_result", ir.V("conn"))
		e.CallTo("row", "mysql_fetch_row", ir.V("result"))
		e.If(ir.V("row"), have, miss)
		have.CallTo("price", "strcpy", ir.At(ir.V("row"), ir.I(0)))
		have.Call("mysql_free_result", ir.V("result"))
		have.RetVal(ir.V("price"))
		miss.Call("mysql_free_result", ir.V("result"))
		miss.RetVal(ir.S(""))
	}

	// lookupPrice(conn, pid): user-facing wrapper around priceOf.
	{
		f := b.Func("lookupPrice", "conn", "pid")
		e := f.Block()
		have := f.Block()
		miss := f.Block()
		done := f.Block()
		e.InvokeTo("price", "priceOf", ir.V("conn"), ir.V("pid"))
		e.If(ir.V("price"), have, miss)
		have.Call("printf", ir.S("price of %s is %s\n"), ir.V("pid"), ir.V("price"))
		have.Goto(done)
		miss.Call("printf", ir.S("unknown product\n"))
		miss.Goto(done)
		done.Ret()
	}

	// sell(conn, pid, qty): stock check, update, receipt.
	{
		f := b.Func("sell", "conn", "pid", "qty")
		e := f.Block()
		have := f.Block()
		short := f.Block()
		apply := f.Block()
		fin := f.Block()
		e.CallTo("st", "mysql_query", ir.V("conn"),
			ir.Cat(ir.S("SELECT stock, price FROM products WHERE id = "), ir.V("pid")))
		e.CallTo("result", "mysql_store_result", ir.V("conn"))
		e.CallTo("row", "mysql_fetch_row", ir.V("result"))
		e.If(ir.V("row"), have, fin)
		have.CallTo("stock", "atoi", ir.At(ir.V("row"), ir.I(0)))
		have.CallTo("want", "atoi", ir.V("qty"))
		have.If(ir.Lt(ir.V("stock"), ir.V("want")), short, apply)
		short.Call("printf", ir.S("only %d in stock\n"), ir.V("stock"))
		short.Goto(fin)
		apply.CallTo("st2", "mysql_query", ir.V("conn"),
			ir.Cat(ir.S("UPDATE products SET stock = "), ir.Sub(ir.V("stock"), ir.V("want")),
				ir.S(" WHERE id = "), ir.V("pid")))
		apply.Invoke("printReceipt", ir.V("pid"), ir.V("qty"), ir.At(ir.V("row"), ir.I(1)))
		apply.Goto(fin)
		fin.Call("mysql_free_result", ir.V("result"))
		fin.Ret()
	}

	// printReceipt(pid, qty, price): TD flows in via price.
	{
		f := b.Func("printReceipt", "pid", "qty", "price")
		e := f.Block()
		e.Call("puts", ir.S("---- receipt ----"))
		e.CallTo("q", "atoi", ir.V("qty"))
		e.CallTo("p", "atoi", ir.V("price"))
		e.Call("printf", ir.S("item %s x%s\n"), ir.V("pid"), ir.V("qty"))
		e.Call("printf", ir.S("total %d\n"), ir.Mul(ir.V("q"), ir.V("p")))
		e.Call("puts", ir.S("-----------------"))
		e.Ret()
	}

	// inventory(conn): full walk with a low-stock branch per row.
	{
		f := b.Func("inventory", "conn")
		e := f.Block()
		loop := f.Block()
		body := f.Block()
		low := f.Block()
		fine := f.Block()
		next := f.Block()
		done := f.Block()
		e.CallTo("st", "mysql_query", ir.V("conn"),
			ir.S("SELECT id, name, stock FROM products ORDER BY id"))
		e.CallTo("result", "mysql_store_result", ir.V("conn"))
		e.Goto(loop)
		loop.CallTo("row", "mysql_fetch_row", ir.V("result"))
		loop.If(ir.V("row"), body, done)
		body.CallTo("stock", "atoi", ir.At(ir.V("row"), ir.I(2)))
		body.If(ir.Lt(ir.V("stock"), ir.I(5)), low, fine)
		low.Call("printf", ir.S("LOW %s (%s left)\n"), ir.At(ir.V("row"), ir.I(1)), ir.At(ir.V("row"), ir.I(2)))
		low.Goto(next)
		fine.Call("printf", ir.S("ok  %s\n"), ir.At(ir.V("row"), ir.I(1)))
		fine.Goto(next)
		next.Goto(loop)
		done.Call("mysql_free_result", ir.V("result"))
		done.Ret()
	}

	// restockReport(conn, threshold): writes the restock list to a file —
	// a legitimate fprintf of TD, exactly the kind of statement the DDG
	// labels and attack 1.3 tries to reuse.
	{
		f := b.Func("restockReport", "conn", "threshold")
		e := f.Block()
		loop := f.Block()
		body := f.Block()
		done := f.Block()
		e.CallTo("st", "mysql_query", ir.V("conn"),
			ir.Cat(ir.S("SELECT name, stock FROM products WHERE stock < "),
				ir.V("threshold"), ir.S(" ORDER BY stock")))
		e.CallTo("result", "mysql_store_result", ir.V("conn"))
		e.CallTo("out", "fopen", ir.S("restock.txt"), ir.S("w"))
		e.Call("fputs", ir.S("restock list\n"), ir.V("out"))
		e.Goto(loop)
		loop.CallTo("row", "mysql_fetch_row", ir.V("result"))
		loop.If(ir.V("row"), body, done)
		body.Call("fprintf", ir.V("out"), ir.S("%s: need %s more\n"),
			ir.At(ir.V("row"), ir.I(0)), ir.At(ir.V("row"), ir.I(1)))
		body.Goto(loop)
		done.Call("fclose", ir.V("out"))
		done.Call("printf", ir.S("report written\n"))
		done.Call("mysql_free_result", ir.V("result"))
		done.Ret()
	}

	// dailySummary(conn): counts plus a top-sales loop.
	{
		f := b.Func("dailySummary", "conn")
		e := f.Block()
		loop := f.Block()
		body := f.Block()
		done := f.Block()
		e.CallTo("st", "mysql_query", ir.V("conn"), ir.S("SELECT COUNT(*) FROM sales"))
		e.CallTo("cres", "mysql_store_result", ir.V("conn"))
		e.CallTo("crow", "mysql_fetch_row", ir.V("cres"))
		e.Call("printf", ir.S("%s sales today\n"), ir.At(ir.V("crow"), ir.I(0)))
		e.Call("mysql_free_result", ir.V("cres"))
		e.CallTo("st2", "mysql_query", ir.V("conn"),
			ir.S("SELECT product_id, qty FROM sales ORDER BY qty DESC LIMIT 5"))
		e.CallTo("result", "mysql_store_result", ir.V("conn"))
		e.Goto(loop)
		loop.CallTo("row", "mysql_fetch_row", ir.V("result"))
		loop.If(ir.V("row"), body, done)
		body.Call("printf", ir.S("  product %s sold %s\n"),
			ir.At(ir.V("row"), ir.I(0)), ir.At(ir.V("row"), ir.I(1)))
		body.Goto(loop)
		done.Call("mysql_free_result", ir.V("result"))
		done.Call("puts", ir.S("summary done"))
		done.Ret()
	}

	// restock(conn, pid, qty): delivery UPDATE.
	{
		f := b.Func("restock", "conn", "pid", "qty")
		e := f.Block()
		e.CallTo("st", "mysql_query", ir.V("conn"),
			ir.Cat(ir.S("UPDATE products SET stock = "), ir.V("qty"),
				ir.S(" WHERE id = "), ir.V("pid")))
		e.Call("printf", ir.S("restocked %s to %s\n"), ir.V("pid"), ir.V("qty"))
		e.Ret()
	}

	// help().
	{
		f := b.Func("help")
		e := f.Block()
		e.Call("puts", ir.S("1 price | 2 sell | 3 inventory | 4 restock-report | 5 summary | 6 restock"))
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

		op1.CallTo("pid", "scanf", ir.S("%s"))
		op1.Invoke("lookupPrice", ir.V("conn"), ir.V("pid"))
		op1.Goto(done)

		n1.If(ir.Eq(ir.V("op"), ir.I(2)), op2, n2)
		op2.CallTo("pid", "scanf", ir.S("%s"))
		op2.CallTo("qty", "scanf", ir.S("%s"))
		op2.Invoke("sell", ir.V("conn"), ir.V("pid"), ir.V("qty"))
		op2.Goto(done)

		n2.If(ir.Eq(ir.V("op"), ir.I(3)), op3, n3)
		op3.Invoke("inventory", ir.V("conn"))
		op3.Goto(done)

		n3.If(ir.Eq(ir.V("op"), ir.I(4)), op4, n4)
		op4.CallTo("threshold", "scanf", ir.S("%s"))
		op4.Invoke("restockReport", ir.V("conn"), ir.V("threshold"))
		op4.Goto(done)

		n4.If(ir.Eq(ir.V("op"), ir.I(5)), op5, n5)
		op5.Invoke("dailySummary", ir.V("conn"))
		op5.Goto(done)

		n5.If(ir.Eq(ir.V("op"), ir.I(6)), op6, other)
		op6.CallTo("pid", "scanf", ir.S("%s"))
		op6.CallTo("qty", "scanf", ir.S("%s"))
		op6.Invoke("restock", ir.V("conn"), ir.V("pid"), ir.V("qty"))
		op6.Goto(done)

		other.Invoke("help")
		other.Goto(done)

		done.Call("mysql_close", ir.V("conn"))
		done.Ret()
	}

	return b.MustBuild()
}

func appSTestCases() []TestCase {
	var cases []TestCase
	add := func(name string, input ...string) {
		cases = append(cases, TestCase{Name: name, Input: input})
	}
	// 36 cases mirroring Table III's App_s count.
	for i := 1; i <= 10; i++ {
		add(fmt.Sprintf("price-%d", i), "1", fmt.Sprintf("%d", i*3))
	}
	for i := 1; i <= 8; i++ {
		add(fmt.Sprintf("sell-%d", i), "2", fmt.Sprintf("%d", i*4), fmt.Sprintf("%d", i%3+1))
	}
	add("inventory-a", "3")
	add("inventory-b", "3")
	for _, th := range []int{3, 5, 10, 20} {
		add(fmt.Sprintf("restock-report-%d", th), "4", fmt.Sprintf("%d", th))
	}
	for i := 0; i < 4; i++ {
		add(fmt.Sprintf("summary-%d", i), "5")
	}
	for i := 1; i <= 6; i++ {
		add(fmt.Sprintf("restock-%d", i), "6", fmt.Sprintf("%d", i*5), fmt.Sprintf("%d", 20+i))
	}
	add("help-a", "8")
	add("help-b", "0")
	return cases
}
