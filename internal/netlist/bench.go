package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/logic"
)

// maxBenchLine is the longest bench line ParseBench accepts, in bytes.
const maxBenchLine = 1 << 20

// ParseBench reads a circuit in the ISCAS-89 bench format:
//
//	# comment
//	INPUT(a)
//	OUTPUT(z)
//	q = DFF(g)
//	g = AND(a, q)
//	z = NOT(g)
//
// The accepted gate keywords are DFF plus the logic.Op names (AND, OR,
// NAND, NOR, NOT, BUF, XOR, XNOR, CONST0, CONST1). Keywords are
// case-insensitive; signal names are case-sensitive.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	b := NewBuilder(name)
	sc := bufio.NewScanner(r)
	// Start small and let the scanner grow up to the 1 MiB line cap;
	// a preallocated 1 MiB buffer would be zeroed on every parse.
	sc.Buffer(make([]byte, 0, 64<<10), maxBenchLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if eq := strings.IndexByte(line, '='); eq >= 0 {
			lhs := strings.TrimSpace(line[:eq])
			kw, args, err := parseCall(line[eq+1:])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", name, lineNo, err)
			}
			if lhs == "" {
				return nil, fmt.Errorf("%s:%d: missing signal name before '='", name, lineNo)
			}
			if kw == "DFF" {
				if len(args) != 1 {
					return nil, fmt.Errorf("%s:%d: DFF takes one argument", name, lineNo)
				}
				b.DFF(lhs, args[0])
				continue
			}
			op, ok := logic.ParseOp(kw)
			if !ok {
				return nil, fmt.Errorf("%s:%d: unknown gate type %q", name, lineNo, kw)
			}
			b.Gate(lhs, op, args...)
			continue
		}
		kw, args, err := parseCall(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, lineNo, err)
		}
		switch kw {
		case "INPUT":
			if len(args) != 1 {
				return nil, fmt.Errorf("%s:%d: INPUT takes one argument", name, lineNo)
			}
			b.Input(args[0])
		case "OUTPUT":
			if len(args) != 1 {
				return nil, fmt.Errorf("%s:%d: OUTPUT takes one argument", name, lineNo)
			}
			b.Output(args[0])
		default:
			return nil, fmt.Errorf("%s:%d: unexpected directive %q", name, lineNo, kw)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build()
}

// parseCall splits "KW(a, b, c)" into the upper-cased keyword and its
// trimmed arguments.
func parseCall(s string) (string, []string, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("malformed construct %q", s)
	}
	kw := strings.ToUpper(strings.TrimSpace(s[:open]))
	inner := strings.TrimSpace(s[open+1 : len(s)-1])
	if inner == "" {
		return kw, nil, nil
	}
	parts := strings.Split(inner, ",")
	args := make([]string, len(parts))
	for i, p := range parts {
		args[i] = strings.TrimSpace(p)
		if args[i] == "" {
			return "", nil, fmt.Errorf("empty argument in %q", s)
		}
	}
	return kw, args, nil
}

// ParseBenchString is ParseBench over a string.
func ParseBenchString(name, src string) (*Circuit, error) {
	return ParseBench(name, strings.NewReader(src))
}

// WriteBench writes the circuit in bench format: two header comments,
// then the inputs and outputs in declaration order, then every DFF and
// gate in ID order.
func WriteBench(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	st := c.Stats()
	fmt.Fprintf(bw, "# %s\n# %d inputs, %d outputs, %d DFFs, %d gates\n",
		c.Name, st.Inputs, st.Outputs, st.DFFs, st.Gates)
	for _, id := range c.Inputs {
		bw.WriteString("INPUT(")
		bw.WriteString(c.Nodes[id].Name)
		bw.WriteString(")\n")
	}
	for _, id := range c.Outputs {
		bw.WriteString("OUTPUT(")
		bw.WriteString(c.Nodes[id].Name)
		bw.WriteString(")\n")
	}
	for id := range c.Nodes {
		n := &c.Nodes[id]
		if n.Kind == KindInput {
			continue
		}
		kw := n.Op.String()
		if n.Kind == KindDFF {
			kw = "DFF"
		}
		bw.WriteString(n.Name)
		bw.WriteString(" = ")
		bw.WriteString(kw)
		bw.WriteByte('(')
		for i, f := range n.Fanin {
			if i > 0 {
				bw.WriteString(", ")
			}
			bw.WriteString(c.Nodes[f].Name)
		}
		bw.WriteString(")\n")
	}
	return bw.Flush()
}

// BenchString returns the circuit rendered in bench format.
func BenchString(c *Circuit) string {
	var sb strings.Builder
	if err := WriteBench(&sb, c); err != nil {
		panic(err) // strings.Builder cannot fail
	}
	return sb.String()
}
