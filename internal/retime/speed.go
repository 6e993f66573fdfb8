package retime

// This file provides the period-preserving register-movement passes the
// experiment harness combines with MinPeriod into its stand-in for a
// production performance retimer. FSM-style circuits are usually
// already period-optimal (their critical path is the state loop, whose
// delay-per-register no retiming can change), yet the paper's Table II
// circuits came out of SIS retiming with two to five times more
// flip-flops, buried inside the next-state logic. The passes below
// reproduce exactly that outcome while never increasing the clock
// period: SlackBalance pushes the register rank backward into the logic
// (registers multiply at reconvergent fanin), and ForwardStemMoves
// pushes registers forward across high-fanout stems (registers
// duplicate onto every branch) -- the move class whose count determines
// the paper's prefix length.

// SlackBalance runs the given number of backward-move passes: each pass
// scans the movable vertices and increments a vertex's lag when the
// move is legal and keeps the clock period at or below maxPeriod. The
// returned retiming is legal.
func (g *Graph) SlackBalance(r Retiming, passes, maxPeriod int) Retiming {
	cur := append(Retiming(nil), r...)
	for pass := 0; pass < passes; pass++ {
		moved := false
		for v := range g.Verts {
			if g.Verts[v].Fixed() {
				continue
			}
			cur[v]++
			if g.legalAround(cur, v) && g.periodOK(cur, maxPeriod) {
				moved = true
				continue
			}
			cur[v]--
		}
		if !moved {
			break
		}
	}
	return cur
}

// MaxForwardStemWidth caps the fanout of stems eligible for forward
// moves: every branch of a moved stem receives its own register copy,
// so unbounded stems (a state bit feeding a hundred decoders) would
// inflate the register count far beyond what the paper's retimer
// produced.
const MaxForwardStemWidth = 32

// ForwardStemMoves applies up to count forward moves across fanout stem
// vertices that currently carry a register on their input line, keeping
// the period at or below maxPeriod. Stems with the widest fanout below
// MaxForwardStemWidth are preferred (register duplication onto every
// branch is exactly what grows the paper's retimed flip-flop counts).
// The number of moves actually applied is returned alongside the new
// retiming; each moved stem contributes one to the paper's prefix
// length.
func (g *Graph) ForwardStemMoves(r Retiming, count, maxPeriod int) (Retiming, int) {
	cur := append(Retiming(nil), r...)
	type cand struct{ v, fanout int }
	var cands []cand
	for v := range g.Verts {
		if g.Verts[v].Kind == VStem && cur[v] >= 0 && len(g.Out[v]) <= MaxForwardStemWidth {
			cands = append(cands, cand{v, len(g.Out[v])})
		}
	}
	// widest fanout first, index as the tiebreak for determinism
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := cands[j-1], cands[j]
			if a.fanout > b.fanout || (a.fanout == b.fanout && a.v < b.v) {
				break
			}
			cands[j-1], cands[j] = b, a
		}
	}
	applied := 0
	for _, cd := range cands {
		if applied >= count {
			break
		}
		cur[cd.v]--
		if g.legalAround(cur, cd.v) && g.periodOK(cur, maxPeriod) && cur[cd.v] < 0 {
			applied++
			continue
		}
		cur[cd.v]++
	}
	return cur, applied
}
