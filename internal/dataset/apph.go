package dataset

import (
	"fmt"

	"adprom/internal/ir"
	"adprom/internal/minidb"
)

// AppH is the CA-dataset's mini hospital client (paper Table III: a
// PostgreSQL client). It is a hand-written IR program with the structure of
// a small real-world CRUD application: an operation dispatcher in main and
// one function per transaction, with result-set loops and both TD-dependent
// and constant output statements.
//
// Operations (first input token):
//
//	1 <pid>          look up one patient and print the record
//	2 <name> <age>   admit a patient (INSERT) and print a confirmation
//	3 <pid>          list a patient's appointments
//	4 <limit>        billing report: bills above limit, plus a COUNT summary
//	5 <pid>          discharge a patient (DELETE) and log to the audit file
//	anything else    print the menu
func AppH() *App {
	return &App{
		Name:      "apph",
		DBMS:      "PostgreSQL",
		Prog:      buildAppH(),
		FreshDB:   freshAppHDB,
		TestCases: appHTestCases(),
	}
}

var freshAppHDB = templateClones(appHDB)

func appHDB() *minidb.Database {
	db := minidb.New()
	db.MustExec("CREATE TABLE patients (id INT, name TEXT, age INT, ward TEXT)")
	db.MustExec("CREATE TABLE appointments (id INT, patient_id INT, day TEXT)")
	db.MustExec("CREATE TABLE bills (id INT, patient_id INT, amount INT)")
	wards := []string{"east", "west", "icu", "maternity"}
	for i := 1; i <= 30; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO patients VALUES (%d, 'patient%02d', %d, '%s')",
			i, i, 20+i, wards[i%len(wards)]))
		db.MustExec(fmt.Sprintf("INSERT INTO appointments VALUES (%d, %d, 'day%d')", i, (i%10)+1, i%7))
		db.MustExec(fmt.Sprintf("INSERT INTO bills VALUES (%d, %d, %d)", i, (i%15)+1, i*120))
	}
	return db
}

func buildAppH() *ir.Program {
	b := ir.NewBuilder("apph")

	// lookupPatient(conn, pid): select one record, print every field.
	{
		f := b.Func("lookupPatient", "conn", "pid")
		e := f.Block()
		loop := f.Block()
		body := f.Block()
		found := f.Block()
		missing := f.Block()
		done := f.Block()
		e.CallTo("res", "PQexec", ir.V("conn"),
			ir.Cat(ir.S("SELECT * FROM patients WHERE id = "), ir.V("pid")))
		e.CallTo("rows", "PQntuples", ir.V("res"))
		e.If(ir.Gt(ir.V("rows"), ir.I(0)), found, missing)
		found.Call("printf", ir.S("patient record:\n"))
		found.Assign("r", ir.I(0))
		found.Goto(loop)
		loop.If(ir.Lt(ir.V("r"), ir.V("rows")), body, done)
		body.CallTo("name", "PQgetvalue", ir.V("res"), ir.V("r"), ir.I(1))
		body.CallTo("ward", "PQgetvalue", ir.V("res"), ir.V("r"), ir.I(3))
		body.Call("printf", ir.S("  %s in ward %s\n"), ir.V("name"), ir.V("ward"))
		body.Assign("r", ir.Add(ir.V("r"), ir.I(1)))
		body.Goto(loop)
		missing.Call("printf", ir.S("no such patient\n"))
		missing.Goto(done)
		done.Call("PQclear", ir.V("res"))
		done.Ret()
	}

	// admitPatient(conn, name, age): INSERT and confirm.
	{
		f := b.Func("admitPatient", "conn", "name", "age")
		e := f.Block()
		ok := f.Block()
		fail := f.Block()
		done := f.Block()
		e.CallTo("res", "PQexec", ir.V("conn"),
			ir.Cat(ir.S("INSERT INTO patients VALUES (99, '"), ir.V("name"),
				ir.S("', "), ir.V("age"), ir.S(", 'east')")))
		e.If(ir.V("res"), ok, fail)
		ok.Call("printf", ir.S("admitted %s\n"), ir.V("name"))
		ok.Goto(done)
		fail.Call("printf", ir.S("admission failed\n"))
		fail.Goto(done)
		done.Call("PQclear", ir.V("res"))
		done.Ret()
	}

	// listAppointments(conn, pid): loop over the patient's appointments.
	{
		f := b.Func("listAppointments", "conn", "pid")
		e := f.Block()
		loop := f.Block()
		body := f.Block()
		done := f.Block()
		e.CallTo("res", "PQexec", ir.V("conn"),
			ir.Cat(ir.S("SELECT day FROM appointments WHERE patient_id = "),
				ir.V("pid"), ir.S(" ORDER BY id")))
		e.CallTo("rows", "PQntuples", ir.V("res"))
		e.Call("printf", ir.S("appointments:\n"))
		e.Assign("r", ir.I(0))
		e.Goto(loop)
		loop.If(ir.Lt(ir.V("r"), ir.V("rows")), body, done)
		body.CallTo("day", "PQgetvalue", ir.V("res"), ir.V("r"), ir.I(0))
		body.Call("printf", ir.S("  visit on %s\n"), ir.V("day"))
		body.Assign("r", ir.Add(ir.V("r"), ir.I(1)))
		body.Goto(loop)
		done.Call("PQclear", ir.V("res"))
		done.Ret()
	}

	// billingReport(conn, limit): bills above limit plus a count summary.
	{
		f := b.Func("billingReport", "conn", "limit")
		e := f.Block()
		loop := f.Block()
		body := f.Block()
		summary := f.Block()
		big := f.Block()
		small := f.Block()
		done := f.Block()
		e.CallTo("res", "PQexec", ir.V("conn"),
			ir.Cat(ir.S("SELECT patient_id, amount FROM bills WHERE amount > "),
				ir.V("limit"), ir.S(" ORDER BY amount DESC")))
		e.CallTo("rows", "PQntuples", ir.V("res"))
		e.Assign("r", ir.I(0))
		e.Goto(loop)
		loop.If(ir.Lt(ir.V("r"), ir.V("rows")), body, summary)
		body.CallTo("pid", "PQgetvalue", ir.V("res"), ir.V("r"), ir.I(0))
		body.CallTo("amt", "PQgetvalue", ir.V("res"), ir.V("r"), ir.I(1))
		body.Call("printf", ir.S("bill: patient %s owes %s\n"), ir.V("pid"), ir.V("amt"))
		body.Assign("r", ir.Add(ir.V("r"), ir.I(1)))
		body.Goto(loop)
		summary.CallTo("cres", "PQexec", ir.V("conn"), ir.S("SELECT COUNT(*) FROM bills"))
		summary.CallTo("total", "PQgetvalue", ir.V("cres"), ir.I(0), ir.I(0))
		summary.If(ir.Gt(ir.V("rows"), ir.I(5)), big, small)
		big.Call("printf", ir.S("%s bills on file; many overdue\n"), ir.V("total"))
		big.Goto(done)
		small.Call("printf", ir.S("billing healthy\n"))
		small.Goto(done)
		done.Call("PQclear", ir.V("cres"))
		done.Call("PQclear", ir.V("res"))
		done.Ret()
	}

	// dischargePatient(conn, pid): DELETE, log to the audit file.
	{
		f := b.Func("dischargePatient", "conn", "pid")
		e := f.Block()
		e.CallTo("res", "PQexec", ir.V("conn"),
			ir.Cat(ir.S("DELETE FROM patients WHERE id = "), ir.V("pid")))
		e.CallTo("log", "fopen", ir.S("discharge.log"), ir.S("a"))
		e.Call("fprintf", ir.V("log"), ir.S("discharged %s\n"), ir.V("pid"))
		e.Call("fclose", ir.V("log"))
		e.Call("printf", ir.S("done\n"))
		e.Call("PQclear", ir.V("res"))
		e.Ret()
	}

	// menu(): the fallthrough help text.
	{
		f := b.Func("menu")
		e := f.Block()
		e.Call("puts", ir.S("1 lookup | 2 admit | 3 appts | 4 billing | 5 discharge"))
		e.Ret()
	}

	// main: read op, dispatch.
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
		other := m.Block()
		done := m.Block()

		e.CallTo("conn", "PQconnectdb")
		e.CallTo("opTok", "scanf", ir.S("%d"))
		e.CallTo("op", "atoi", ir.V("opTok"))
		e.If(ir.Eq(ir.V("op"), ir.I(1)), op1, n1)

		op1.CallTo("pid", "scanf", ir.S("%s"))
		op1.Invoke("lookupPatient", ir.V("conn"), ir.V("pid"))
		op1.Goto(done)

		n1.If(ir.Eq(ir.V("op"), ir.I(2)), op2, n2)
		op2.CallTo("name", "scanf", ir.S("%s"))
		op2.CallTo("age", "scanf", ir.S("%s"))
		op2.Invoke("admitPatient", ir.V("conn"), ir.V("name"), ir.V("age"))
		op2.Goto(done)

		n2.If(ir.Eq(ir.V("op"), ir.I(3)), op3, n3)
		op3.CallTo("pid", "scanf", ir.S("%s"))
		op3.Invoke("listAppointments", ir.V("conn"), ir.V("pid"))
		op3.Goto(done)

		n3.If(ir.Eq(ir.V("op"), ir.I(4)), op4, n4)
		op4.CallTo("limit", "scanf", ir.S("%s"))
		op4.Invoke("billingReport", ir.V("conn"), ir.V("limit"))
		op4.Goto(done)

		n4.If(ir.Eq(ir.V("op"), ir.I(5)), op5, other)
		op5.CallTo("pid", "scanf", ir.S("%s"))
		op5.Invoke("dischargePatient", ir.V("conn"), ir.V("pid"))
		op5.Goto(done)

		other.Invoke("menu")
		other.Goto(done)

		done.Call("PQfinish", ir.V("conn"))
		done.Ret()
	}

	return b.MustBuild()
}

func appHTestCases() []TestCase {
	var cases []TestCase
	add := func(name string, input ...string) {
		cases = append(cases, TestCase{Name: name, Input: input})
	}
	// 63 test cases mirroring Table III's App_h count: lookups across the id
	// range, admissions, appointment listings, billing sweeps, discharges,
	// and menu fallthroughs.
	for i := 1; i <= 20; i++ {
		add(fmt.Sprintf("lookup-%d", i), "1", fmt.Sprintf("%d", i))
	}
	for i := 0; i < 10; i++ {
		add(fmt.Sprintf("admit-%d", i), "2", fmt.Sprintf("newpat%d", i), fmt.Sprintf("%d", 25+i))
	}
	for i := 1; i <= 12; i++ {
		add(fmt.Sprintf("appts-%d", i), "3", fmt.Sprintf("%d", i))
	}
	for _, limit := range []int{0, 500, 1000, 1500, 2000, 2500, 3000, 3600} {
		add(fmt.Sprintf("billing-%d", limit), "4", fmt.Sprintf("%d", limit))
	}
	for i := 1; i <= 10; i++ {
		add(fmt.Sprintf("discharge-%d", i), "5", fmt.Sprintf("%d", i*2))
	}
	for i := 0; i < 3; i++ {
		add(fmt.Sprintf("menu-%d", i), fmt.Sprintf("%d", 90+i))
	}
	return cases
}
