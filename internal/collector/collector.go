// Package collector implements AD-PROM's Calls Collector (paper §IV-B2):
// it attaches to a running program and records the library calls it issues,
// together with the caller function — the stream both the Profile
// Constructor (training) and the Detection Engine (detection) consume.
//
// Two modes reproduce the Table VI comparison:
//
//   - ModeADPROM records only the call label and caller, the paper's
//     purpose-built Dyninst collector ("we only collect the names of the
//     library calls without their arguments").
//   - ModeLtrace emulates the ltrace baseline: every call is formatted into a
//     log line including its rendered arguments, and the caller is resolved
//     through a simulated addr2line pass over a symbol table, the way ltrace
//     output must be post-processed from instruction pointers. The extra
//     work is real computation (formatting + symbol search), so the measured
//     overhead difference has the same cause as the paper's.
package collector

import (
	"fmt"
	"io"
	"strings"

	"adprom/internal/interp"
)

// Mode selects the collection strategy.
type Mode int

const (
	// ModeADPROM collects call labels and callers only.
	ModeADPROM Mode = iota
	// ModeLtrace additionally renders arguments and resolves callers through
	// a simulated addr2line symbol table.
	ModeLtrace
)

// Call is one recorded library call.
type Call struct {
	// Label is the observation symbol (name or name_Q<bid>).
	Label string
	// Name is the plain call name.
	Name string
	// Caller is the function containing the call site.
	Caller string
	// Block is the basic block of the call site.
	Block int
	// Origins carries the query origins when the call leaked TD.
	Origins []interp.Origin
	// SQL is the wire query text when the call executed a query; "" for
	// non-query calls. Feeds the SQL-behaviour detection channel.
	SQL string
	// Rows is the query's result cardinality (0 for errors and non-queries).
	Rows int
}

// Trace is the recorded call sequence of one program run.
type Trace []Call

// Labels projects the trace to its observation symbols.
func (t Trace) Labels() []string {
	out := make([]string, len(t))
	for i, c := range t {
		out[i] = c.Label
	}
	return out
}

// Windows returns all sliding windows of length n over the trace (step 1).
// A trace shorter than n yields one window with the whole trace; an empty
// trace yields none. The Detection Engine receives exactly these n-length
// call sequences (paper §IV-D).
func (t Trace) Windows(n int) []Trace {
	if len(t) == 0 || n <= 0 {
		return nil
	}
	if len(t) <= n {
		return []Trace{t}
	}
	out := make([]Trace, 0, len(t)-n+1)
	for i := 0; i+n <= len(t); i++ {
		out = append(out, t[i:i+n])
	}
	return out
}

// LabelWindows is Windows projected to label slices, the training input.
func (t Trace) LabelWindows(n int) [][]string {
	ws := t.Windows(n)
	out := make([][]string, len(ws))
	for i, w := range ws {
		out[i] = w.Labels()
	}
	return out
}

// Collector records the calls of one or more runs.
type Collector struct {
	mode   Mode
	trace  Trace
	log    io.Writer
	sym    *symtab
	logged int
}

// New returns a collector. In ModeLtrace, log receives the formatted lines
// (io.Discard is used when nil), and the simulated symbol table is built
// once, mirroring ltrace's startup cost.
func New(mode Mode, log io.Writer) *Collector {
	c := &Collector{mode: mode, log: log}
	if mode == ModeLtrace {
		if c.log == nil {
			c.log = io.Discard
		}
		c.sym = newSymtab()
	}
	return c
}

// CallOf converts an interpreter call event into the collected Call record —
// the one conversion shared by the collector and inline monitors.
func CallOf(e *interp.Event) Call {
	return Call{
		Label:   e.Label,
		Name:    e.Name,
		Caller:  e.Caller,
		Block:   e.Block,
		Origins: e.Origins,
		SQL:     e.SQL,
		Rows:    e.Rows,
	}
}

// Hook returns the interpreter hook that feeds this collector.
func (c *Collector) Hook() interp.Hook {
	return func(e *interp.Event) {
		call := CallOf(e)
		if c.mode == ModeLtrace {
			resolved := c.sym.resolve(e.Caller, e.Block)
			fmt.Fprintf(c.log, "%s %s(%s) = <?> [%s]\n",
				resolved, e.Name, strings.Join(e.Args, ", "), e.Caller)
			c.logged++
		}
		c.trace = append(c.trace, call)
	}
}

// Trace returns the calls recorded so far.
func (c *Collector) Trace() Trace { return c.trace }

// LoggedLines reports how many ltrace-style lines were written.
func (c *Collector) LoggedLines() int { return c.logged }

// Reset clears the recorded trace between runs.
func (c *Collector) Reset() { c.trace = nil }

// symtab simulates the binary's symbol table that ltrace-style collection
// resolves instruction pointers against. Addresses are synthetic but the
// resolution work (hash, binary search, formatting) is real.
type symtab struct {
	addrs []uint64
	names []string
}

func newSymtab() *symtab {
	const entries = 4096
	s := &symtab{addrs: make([]uint64, entries), names: make([]string, entries)}
	addr := uint64(0x400000)
	for i := 0; i < entries; i++ {
		addr += uint64(16 + (i*2654435761)%4096)
		s.addrs[i] = addr
		s.names[i] = fmt.Sprintf("sym_%06x", addr)
	}
	return s
}

// resolve maps (caller, block) to a synthetic address and looks it up with a
// linear scan. Real ltrace post-processing resolves each instruction pointer
// by invoking addr2line — a subprocess costing milliseconds per call — so a
// full table scan is a *conservative* stand-in for that per-call cost; the
// Table VI comparison only needs the baseline's per-call work to dwarf the
// name-only collector's two appends, which it does by construction here and
// by process spawning in the original.
func (s *symtab) resolve(caller string, block int) string {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(caller); i++ {
		h ^= uint64(caller[i])
		h *= 1099511628211
	}
	h ^= uint64(block)
	h *= 1099511628211
	addr := s.addrs[0] + h%(s.addrs[len(s.addrs)-1]-s.addrs[0])
	best := len(s.addrs) - 1
	for i, a := range s.addrs {
		if a >= addr {
			best = i
			break
		}
	}
	var off uint64
	if s.addrs[best] <= addr {
		off = addr - s.addrs[best]
	}
	return fmt.Sprintf("%s+0x%x", s.names[best], off)
}
