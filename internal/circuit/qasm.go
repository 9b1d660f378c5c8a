package circuit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ToQASM serialises the circuit as OpenQASM 2.0 over a single quantum
// register q[NumQubits]. Every gate in the package's vocabulary has a
// direct QASM counterpart, so interoperability with Qiskit-era tooling
// is lossless.
func ToQASM(c *Circuit, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\n", c.NumQubits)
	for _, g := range c.Gates {
		if !g.op.valid() {
			return fmt.Errorf("circuit: gate %v has no QASM form", g.op)
		}
		s := g.Name()
		if g.op.hasParam() {
			s += "(" + strconv.FormatFloat(g.Param, 'g', 17, 64) + ")"
		}
		sep := " "
		for _, q := range g.Qubits() {
			s += fmt.Sprintf("%sq[%d]", sep, q)
			sep = ","
		}
		fmt.Fprintf(bw, "%s;\n", s)
	}
	// A write error sticks to bw, so Flush reports it.
	return bw.Flush()
}

// QASMString returns the circuit's QASM text.
func QASMString(c *Circuit) string {
	var sb strings.Builder
	// strings.Builder never errors.
	_ = ToQASM(c, &sb)
	return sb.String()
}

// FromQASM parses the OpenQASM 2.0 subset emitted by ToQASM: a single
// qreg declaration followed by gates from this package's vocabulary.
// Comments (//) and blank lines are ignored; barrier and measure
// statements are skipped (they carry no unitary semantics here).
func FromQASM(r io.Reader) (*Circuit, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	var c *Circuit
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if i := strings.Index(line, "//"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		// Statements may share a line; split on ';'.
		for _, stmt := range strings.Split(line, ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt == "" {
				continue
			}
			var err error
			c, err = parseQASMStatement(c, stmt, lineNo)
			if err != nil {
				return nil, err
			}
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("circuit: reading QASM: %w", err)
	}
	if c == nil {
		return nil, fmt.Errorf("circuit: QASM input has no qreg declaration")
	}
	return c, nil
}

func parseQASMStatement(c *Circuit, stmt string, line int) (*Circuit, error) {
	switch {
	case strings.HasPrefix(stmt, "OPENQASM"),
		strings.HasPrefix(stmt, "include"),
		strings.HasPrefix(stmt, "creg"),
		strings.HasPrefix(stmt, "barrier"),
		strings.HasPrefix(stmt, "measure"):
		return c, nil
	case strings.HasPrefix(stmt, "qreg"):
		n, err := parseQregSize(stmt)
		if err != nil {
			return nil, fmt.Errorf("circuit: line %d: %w", line, err)
		}
		if c != nil {
			return nil, fmt.Errorf("circuit: line %d: multiple qreg declarations", line)
		}
		return New(n), nil
	}
	if c == nil {
		return nil, fmt.Errorf("circuit: line %d: gate before qreg declaration", line)
	}
	name, param, qubits, err := parseQASMGate(stmt)
	if err != nil {
		return nil, fmt.Errorf("circuit: line %d: %w", line, err)
	}
	op, ok := opNamed(name)
	if !ok {
		return nil, fmt.Errorf("circuit: line %d: unsupported gate %q", line, name)
	}
	if err := c.add(op, param, qubits); err != nil {
		return nil, fmt.Errorf("circuit: line %d: %w", line, err)
	}
	return c, nil
}

// parseQregSize extracts n from "qreg q[n]".
func parseQregSize(stmt string) (int, error) {
	lb, rb := strings.Index(stmt, "["), strings.Index(stmt, "]")
	if lb < 0 || rb < lb {
		return 0, fmt.Errorf("malformed qreg %q", stmt)
	}
	n, err := strconv.Atoi(strings.TrimSpace(stmt[lb+1 : rb]))
	if err != nil || n < 1 || n > math.MaxInt32 {
		return 0, fmt.Errorf("bad qreg size in %q", stmt)
	}
	return n, nil
}

// parseQASMGate splits "name(param) q[a],q[b]" into its parts.
func parseQASMGate(stmt string) (name string, param float64, qubits []int, err error) {
	sp := strings.IndexAny(stmt, " \t")
	if sp < 0 {
		return "", 0, nil, fmt.Errorf("malformed gate %q", stmt)
	}
	head, tail := stmt[:sp], strings.TrimSpace(stmt[sp+1:])
	name = head
	if lp := strings.Index(head, "("); lp >= 0 {
		rp := strings.LastIndex(head, ")")
		if rp < lp {
			return "", 0, nil, fmt.Errorf("malformed parameter in %q", stmt)
		}
		name = head[:lp]
		param, err = parseQASMParam(head[lp+1 : rp])
		if err == nil && (math.IsNaN(param) || math.IsInf(param, 0)) {
			err = fmt.Errorf("angle %v is not finite", param)
		}
		if err != nil {
			return "", 0, nil, fmt.Errorf("bad parameter in %q: %w", stmt, err)
		}
	}
	for _, op := range strings.Split(tail, ",") {
		op = strings.TrimSpace(op)
		lb, rb := strings.Index(op, "["), strings.Index(op, "]")
		if lb < 0 || rb < lb {
			return "", 0, nil, fmt.Errorf("malformed operand %q", op)
		}
		q, aerr := strconv.Atoi(op[lb+1 : rb])
		if aerr != nil {
			return "", 0, nil, fmt.Errorf("bad operand index %q", op)
		}
		qubits = append(qubits, q)
	}
	return name, param, qubits, nil
}

// parseQASMParam accepts plain floats plus the common "pi"-expressions
// QASM files use: pi, -pi, pi/2, 2*pi, pi*3/4 and similar single-term
// forms.
func parseQASMParam(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	rest, neg := strings.CutPrefix(s, "-")
	num, den, _ := strings.Cut(strings.TrimSpace(rest), "/")
	v, err := parsePiProduct(strings.TrimSpace(num))
	if err != nil {
		return 0, err
	}
	if den = strings.TrimSpace(den); den != "" {
		d, err := strconv.ParseFloat(den, 64)
		if err != nil || d == 0 {
			return 0, fmt.Errorf("bad denominator %q", den)
		}
		v /= d
	}
	if neg {
		v = -v
	}
	return v, nil
}

// parsePiProduct parses "pi", "2*pi", "pi*3", or a plain float.
func parsePiProduct(s string) (float64, error) {
	if a, b, ok := strings.Cut(s, "*"); ok {
		av, err := parsePiProduct(strings.TrimSpace(a))
		if err != nil {
			return 0, err
		}
		bv, err := parsePiProduct(strings.TrimSpace(b))
		if err != nil {
			return 0, err
		}
		return av * bv, nil
	}
	if s == "pi" {
		return math.Pi, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad factor %q", s)
	}
	return v, nil
}
