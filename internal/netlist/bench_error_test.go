package netlist

import (
	"bufio"
	"errors"
	"strings"
	"testing"
)

// TestParseBenchErrorPaths covers the reader's rejection paths, which
// until now were only exercised implicitly. Every case names the
// offending construct so the error text can be checked too.
func TestParseBenchErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantErr string
	}{
		{
			"malformed gate line: missing parenthesis",
			"INPUT(a)\nOUTPUT(z)\nz = AND a, a\n",
			"malformed construct",
		},
		{
			"malformed gate line: unclosed call",
			"INPUT(a)\nOUTPUT(z)\nz = AND(a, a\n",
			"malformed construct",
		},
		{
			"malformed gate line: empty argument",
			"INPUT(a)\nOUTPUT(z)\nz = AND(a, )\n",
			"empty argument",
		},
		{
			"missing signal name before =",
			"INPUT(a)\nOUTPUT(z)\n = AND(a, a)\n",
			"missing signal name",
		},
		{
			"unknown gate type",
			"INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n",
			`unknown gate type "FROB"`,
		},
		{
			"DFF with two arguments",
			"INPUT(a)\nOUTPUT(q)\nq = DFF(a, a)\n",
			"DFF takes one argument",
		},
		{
			"INPUT with two arguments",
			"INPUT(a, b)\nOUTPUT(z)\nz = BUF(a)\n",
			"INPUT takes one argument",
		},
		{
			"OUTPUT with no argument",
			"INPUT(a)\nOUTPUT()\nz = BUF(a)\n",
			"OUTPUT takes one argument",
		},
		{
			"unexpected directive",
			"INPUT(a)\nWIRE(w)\nOUTPUT(z)\nz = BUF(a)\n",
			`unexpected directive "WIRE"`,
		},
		{
			"undefined signal in gate fanin",
			"INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)\n",
			`references undeclared signal "ghost"`,
		},
		{
			"undefined signal as output",
			"INPUT(a)\nOUTPUT(ghost)\nz = BUF(a)\n",
			`output references undeclared signal "ghost"`,
		},
		{
			"duplicate output",
			"INPUT(a)\nOUTPUT(z)\nOUTPUT(z)\nz = BUF(a)\n",
			`duplicate output "z"`,
		},
		{
			"duplicate signal declaration",
			"INPUT(a)\nOUTPUT(z)\nz = BUF(a)\nz = NOT(a)\n",
			`duplicate declaration of "z"`,
		},
		{
			"input redeclared as gate",
			"INPUT(a)\nOUTPUT(z)\na = NOT(a)\nz = BUF(a)\n",
			`duplicate declaration of "a"`,
		},
	}
	for _, c := range cases {
		_, err := ParseBenchString(c.name, c.src)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.wantErr)
		}
	}
}

// TestParseBenchErrorsCarryLocation checks reader errors point at the
// file and line of the offending construct.
func TestParseBenchErrorsCarryLocation(t *testing.T) {
	_, err := ParseBenchString("broken.bench", "INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n")
	if err == nil {
		t.Fatal("accepted")
	}
	if !strings.HasPrefix(err.Error(), "broken.bench:3:") {
		t.Fatalf("error %q does not carry file:line", err)
	}
}

// TestParseBenchLongLines pins the line-length cap: the scanner starts
// with a small buffer and grows it, so a 200 KiB line parses and the
// longest line that fits the 1 MiB cap still does, while one byte more
// fails with bufio.ErrTooLong.
func TestParseBenchLongLines(t *testing.T) {
	long := strings.Repeat("n", 200<<10)
	c, err := ParseBenchString("long", "INPUT("+long+")\nOUTPUT(z)\nz = NOT("+long+")\n")
	if err != nil {
		t.Fatalf("200 KiB line rejected: %v", err)
	}
	if c.NodeID(long) < 0 {
		t.Fatal("200 KiB signal name lost")
	}
	// The cap covers the line and its newline together.
	pad := func(n int) string { return "z = NOT(a) #" + strings.Repeat("x", n-len("z = NOT(a) #")) }
	if _, err := ParseBenchString("cap", "INPUT(a)\nOUTPUT(z)\n"+pad(maxBenchLine-1)+"\n"); err != nil {
		t.Fatalf("line of %d bytes rejected: %v", maxBenchLine-1, err)
	}
	for _, n := range []int{maxBenchLine, maxBenchLine + 1} {
		_, err := ParseBenchString("over", "INPUT(a)\nOUTPUT(z)\n"+pad(n)+"\n")
		if !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("line of %d bytes: err = %v, want %v", n, err, bufio.ErrTooLong)
		}
	}
}
