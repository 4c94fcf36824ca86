// Package aiger reads and writes sequential circuits in the ASCII AIGER
// format ("aag", Biere's And-Inverter-Graph interchange format). Outputs
// are interpreted as bad-state signals, the convention used by the hardware
// model-checking benchmark suites this repo's workloads emulate; latch
// initializations of 0 and 1 (AIGER 1.9) are supported.
package aiger

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/circuit"
)

// parsed is the raw file content before circuit construction.
type parsed struct {
	maxVar      int
	inputs      []int // literals
	latchLits   []int
	latchNexts  []int
	latchInits  []int
	outputs     []int
	andLHS      []int
	andRHS0     []int
	andRHS1     []int
	inputNames  map[int]string
	latchNames  map[int]string
	outputNames map[int]string
}

// Read parses an ASCII AIGER file and constructs a Circuit. The circuit's
// name is taken from the first comment line, or defaults to "aiger".
func Read(r io.Reader) (*circuit.Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)

	if !sc.Scan() {
		return nil, fmt.Errorf("aiger: empty input")
	}
	header := strings.Fields(sc.Text())
	if len(header) < 6 || header[0] != "aag" {
		return nil, fmt.Errorf("aiger: bad header %q (only ASCII aag supported)", sc.Text())
	}
	nums := make([]int, 5)
	for i := 0; i < 5; i++ {
		n, err := strconv.Atoi(header[i+1])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("aiger: bad header field %q", header[i+1])
		}
		nums[i] = n
	}
	p := &parsed{
		maxVar:      nums[0],
		inputNames:  map[int]string{},
		latchNames:  map[int]string{},
		outputNames: map[int]string{},
	}
	nIn, nLatch, nOut, nAnd := nums[1], nums[2], nums[3], nums[4]
	// The spec requires M >= I+L+A; the slack is unused variable
	// indices, which tools that delete nodes without renumbering do
	// emit (and one of our own fixtures exercises). But the header
	// alone must not size allocations: build() indexes signals by
	// variable, so an absurd M in a tiny file would demand gigabytes
	// before a single definition is read. Bound the slack instead of
	// forbidding it.
	const maxVarGap = 1 << 20
	if definable := nIn + nLatch + nAnd; p.maxVar < definable {
		return nil, fmt.Errorf("aiger: header maxvar %d is less than inputs+latches+ands = %d",
			p.maxVar, definable)
	} else if p.maxVar-definable > maxVarGap {
		return nil, fmt.Errorf("aiger: header maxvar %d leaves %d unused variable indices (limit %d)",
			p.maxVar, p.maxVar-definable, maxVarGap)
	}

	readLine := func(what string) (string, error) {
		if !sc.Scan() {
			return "", fmt.Errorf("aiger: unexpected EOF reading %s", what)
		}
		return strings.TrimSpace(sc.Text()), nil
	}

	for i := 0; i < nIn; i++ {
		line, err := readLine("input")
		if err != nil {
			return nil, err
		}
		lit, err := strconv.Atoi(line)
		if err != nil || lit < 2 || lit%2 != 0 {
			return nil, fmt.Errorf("aiger: bad input literal %q", line)
		}
		p.inputs = append(p.inputs, lit)
	}
	for i := 0; i < nLatch; i++ {
		line, err := readLine("latch")
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("aiger: bad latch line %q", line)
		}
		lit, err1 := strconv.Atoi(fields[0])
		next, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil || lit < 2 || lit%2 != 0 || next < 0 {
			return nil, fmt.Errorf("aiger: bad latch line %q", line)
		}
		init := 0
		if len(fields) == 3 {
			init, err = strconv.Atoi(fields[2])
			if err != nil || (init != 0 && init != 1) {
				return nil, fmt.Errorf("aiger: unsupported latch init %q (only 0/1)", fields[2])
			}
		}
		p.latchLits = append(p.latchLits, lit)
		p.latchNexts = append(p.latchNexts, next)
		p.latchInits = append(p.latchInits, init)
	}
	for i := 0; i < nOut; i++ {
		line, err := readLine("output")
		if err != nil {
			return nil, err
		}
		lit, err := strconv.Atoi(line)
		if err != nil || lit < 0 {
			return nil, fmt.Errorf("aiger: bad output literal %q", line)
		}
		p.outputs = append(p.outputs, lit)
	}
	for i := 0; i < nAnd; i++ {
		line, err := readLine("and")
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("aiger: bad and line %q", line)
		}
		var vals [3]int
		for j, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("aiger: bad and line %q", line)
			}
			vals[j] = v
		}
		if vals[0] < 2 || vals[0]%2 != 0 {
			return nil, fmt.Errorf("aiger: and LHS must be a positive even literal: %q", line)
		}
		p.andLHS = append(p.andLHS, vals[0])
		p.andRHS0 = append(p.andRHS0, vals[1])
		p.andRHS1 = append(p.andRHS1, vals[2])
	}

	// Symbol table and comments.
	name := "aiger"
	inComments := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if inComments {
			if name == "aiger" {
				name = line
			}
			continue
		}
		if line == "c" {
			inComments = true
			continue
		}
		kind := line[0]
		rest := line[1:]
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("aiger: bad symbol line %q", line)
		}
		idx, err := strconv.Atoi(rest[:sp])
		if err != nil || idx < 0 {
			return nil, fmt.Errorf("aiger: bad symbol index in %q", line)
		}
		sym := rest[sp+1:]
		switch kind {
		case 'i':
			p.inputNames[idx] = sym
		case 'l':
			p.latchNames[idx] = sym
		case 'o':
			p.outputNames[idx] = sym
		default:
			return nil, fmt.Errorf("aiger: unknown symbol kind %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("aiger: read: %w", err)
	}
	return build(p, name)
}

// build constructs the circuit from parsed content. AND definitions may
// appear in any order; they are resolved recursively with cycle detection.
func build(p *parsed, name string) (*circuit.Circuit, error) {
	c := circuit.New(name)

	// sigOf maps an AIGER variable to a circuit signal once defined.
	sigOf := make([]circuit.Signal, p.maxVar+1)
	defined := make([]uint8, p.maxVar+1) // 0 undefined, 1 in progress, 2 done
	sigOf[0] = circuit.False
	defined[0] = 2

	defVar := func(lit int, s circuit.Signal, what string) error {
		v := lit / 2
		if v > p.maxVar {
			return fmt.Errorf("aiger: %s literal %d exceeds maxvar %d", what, lit, p.maxVar)
		}
		if defined[v] != 0 {
			return fmt.Errorf("aiger: variable %d defined twice", v)
		}
		sigOf[v] = s
		defined[v] = 2
		return nil
	}

	for i, lit := range p.inputs {
		nm := p.inputNames[i]
		if nm == "" {
			nm = fmt.Sprintf("i%d", i)
		}
		if err := defVar(lit, c.Input(nm), "input"); err != nil {
			return nil, err
		}
	}
	latchSigs := make([]circuit.Signal, len(p.latchLits))
	for i, lit := range p.latchLits {
		nm := p.latchNames[i]
		if nm == "" {
			nm = fmt.Sprintf("l%d", i)
		}
		latchSigs[i] = c.Latch(nm, p.latchInits[i] == 1)
		if err := defVar(lit, latchSigs[i], "latch"); err != nil {
			return nil, err
		}
	}

	// Index and definitions by variable.
	andIdx := make(map[int]int, len(p.andLHS))
	for i, lhs := range p.andLHS {
		v := lhs / 2
		if v > p.maxVar {
			return nil, fmt.Errorf("aiger: and LHS %d exceeds maxvar", lhs)
		}
		if _, dup := andIdx[v]; dup || defined[v] != 0 {
			return nil, fmt.Errorf("aiger: variable %d defined twice", v)
		}
		andIdx[v] = i
	}

	var resolve func(lit int) (circuit.Signal, error)
	resolve = func(lit int) (circuit.Signal, error) {
		v := lit / 2
		if v > p.maxVar {
			return 0, fmt.Errorf("aiger: literal %d exceeds maxvar", lit)
		}
		switch defined[v] {
		case 2:
			// done
		case 1:
			return 0, fmt.Errorf("aiger: combinational cycle through variable %d", v)
		default:
			i, ok := andIdx[v]
			if !ok {
				return 0, fmt.Errorf("aiger: variable %d is never defined", v)
			}
			defined[v] = 1
			a, err := resolve(p.andRHS0[i])
			if err != nil {
				return 0, err
			}
			b, err := resolve(p.andRHS1[i])
			if err != nil {
				return 0, err
			}
			sigOf[v] = c.And(a, b)
			defined[v] = 2
		}
		if lit%2 == 1 {
			return sigOf[v].Not(), nil
		}
		return sigOf[v], nil
	}

	// In file order, so the same bytes always number the AND gates — and
	// with them the CNF variables of every unrolling — the same way.
	for _, lhs := range p.andLHS {
		if _, err := resolve(lhs); err != nil {
			return nil, err
		}
	}
	for i := range p.latchLits {
		next, err := resolve(p.latchNexts[i])
		if err != nil {
			return nil, err
		}
		c.SetNext(latchSigs[i], next)
	}
	for i, lit := range p.outputs {
		bad, err := resolve(lit)
		if err != nil {
			return nil, err
		}
		nm := p.outputNames[i]
		if nm == "" {
			nm = fmt.Sprintf("o%d", i)
		}
		c.AddProperty(nm, bad)
	}
	return c, nil
}

// ReadString parses an AIGER description from a string.
func ReadString(s string) (*circuit.Circuit, error) {
	return Read(strings.NewReader(s))
}

// Write serializes the circuit in ASCII AIGER format. Nodes are renumbered
// into the canonical AIGER layout (inputs, then latches, then ANDs in
// topological order). Properties become outputs; names go to the symbol
// table; the circuit name becomes the first comment line.
func Write(w io.Writer, c *circuit.Circuit) error {
	if err := c.Validate(false); err != nil {
		return fmt.Errorf("aiger: %w", err)
	}
	// Renumber: AIGER var for each circuit node.
	varOf := make([]int, c.NumNodes())
	next := 1
	for _, id := range c.Inputs() {
		varOf[id] = next
		next++
	}
	for _, id := range c.Latches() {
		varOf[id] = next
		next++
	}
	var andIDs []circuit.NodeID
	for n := circuit.NodeID(0); int(n) < c.NumNodes(); n++ {
		if c.Kind(n) == circuit.KindAnd {
			varOf[n] = next
			next++
			andIDs = append(andIDs, n)
		}
	}
	maxVar := next - 1

	litOf := func(s circuit.Signal) int {
		l := 2 * varOf[s.Node()]
		if s.IsNeg() {
			l++
		}
		return l
	}

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "aag %d %d %d %d %d\n",
		maxVar, c.NumInputs(), c.NumLatches(), len(c.Properties()), len(andIDs))
	for _, id := range c.Inputs() {
		fmt.Fprintf(bw, "%d\n", 2*varOf[id])
	}
	for _, id := range c.Latches() {
		init := 0
		if c.LatchInit(id).IsTrue() {
			init = 1
		}
		fmt.Fprintf(bw, "%d %d %d\n", 2*varOf[id], litOf(c.LatchNext(id)), init)
	}
	for _, pr := range c.Properties() {
		fmt.Fprintf(bw, "%d\n", litOf(pr.Bad))
	}
	for _, id := range andIDs {
		f0, f1 := c.Fanins(id)
		fmt.Fprintf(bw, "%d %d %d\n", 2*varOf[id], litOf(f0), litOf(f1))
	}
	for i, id := range c.Inputs() {
		if nm := c.NodeName(id); nm != "" {
			fmt.Fprintf(bw, "i%d %s\n", i, nm)
		}
	}
	for i, id := range c.Latches() {
		if nm := c.NodeName(id); nm != "" {
			fmt.Fprintf(bw, "l%d %s\n", i, nm)
		}
	}
	for i, pr := range c.Properties() {
		if pr.Name != "" {
			fmt.Fprintf(bw, "o%d %s\n", i, pr.Name)
		}
	}
	fmt.Fprintf(bw, "c\n%s\n", c.Name())
	return bw.Flush()
}

// WriteString returns the AIGER text of the circuit.
func WriteString(c *circuit.Circuit) (string, error) {
	var b strings.Builder
	if err := Write(&b, c); err != nil {
		return "", err
	}
	return b.String(), nil
}
