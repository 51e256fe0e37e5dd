package lp_test

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"nose/internal/lp"
)

// checkEvaluate fixes every column of p at x and checks Evaluate
// against both engines: each must report Optimal exactly when the
// violation is at most lp.InfeasTol, with Objective bit-equal to
// Evaluate's. Points whose violation lies within 1e-9 of the threshold
// are skipped, since there rounding decides.
func checkEvaluate(t *testing.T, p *lp.Problem, x []float64, label string) {
	t.Helper()
	obj, violation := p.Evaluate(x)
	if math.Abs(violation-lp.InfeasTol) <= 1e-9 {
		return
	}
	fixed := p.Clone()
	for j, v := range x {
		fixed.SetColBounds(j, v, v)
	}
	fast, err := lp.NewSolver().Solve(fixed)
	if err != nil {
		t.Fatalf("%s: sparse solve: %v", label, err)
	}
	ref, err := lp.SolveDense(fixed)
	if err != nil {
		t.Fatalf("%s: dense solve: %v", label, err)
	}
	feasible := violation <= lp.InfeasTol
	for _, got := range []struct {
		engine string
		sol    *lp.Solution
	}{{"sparse", fast}, {"dense", ref}} {
		if (got.sol.Status == lp.Optimal) != feasible {
			t.Fatalf("%s: %s status %v, violation %g", label, got.engine, got.sol.Status, violation)
		}
		if feasible && math.Float64bits(got.sol.Objective) != math.Float64bits(obj) {
			t.Fatalf("%s: %s objective %v, Evaluate %v", label, got.engine, got.sol.Objective, obj)
		}
	}
}

// randomFixedProblem builds a sparse LP over 0-1 columns and a 0-1
// point, then bounds each row around the point's activity: most rows
// hold it, the rest miss it by an amount from 1e-8 to 1, so draws
// land on both sides of the infeasibility threshold.
func randomFixedProblem(rng *rand.Rand) (*lp.Problem, []float64) {
	p := lp.NewProblem()
	m := 1 + rng.Intn(20)
	n := 1 + rng.Intn(30)
	for i := 0; i < m; i++ {
		p.AddRow(0, 0)
	}
	x := make([]float64, n)
	act := make([]float64, m)
	for j := 0; j < n; j++ {
		var es []lp.Entry
		for _, i := range rng.Perm(m)[:1+rng.Intn(min(m, 4))] {
			c := math.Round((rng.Float64()*4-2)*4) / 4
			if rng.Intn(3) == 0 {
				c = rng.NormFloat64()
			}
			if c != 0 {
				es = append(es, lp.Entry{Row: i, Coef: c})
			}
		}
		x[j] = float64(rng.Intn(2))
		for _, e := range es {
			act[e.Row] += e.Coef * x[j]
		}
		p.AddCol(rng.NormFloat64(), 0, 1, es...)
	}
	for i, a := range act {
		miss := 0.0
		if rng.Intn(4) == 0 {
			miss = math.Pow(10, -8+8*rng.Float64())
		}
		slack := rng.Float64()
		switch rng.Intn(4) {
		case 0:
			p.SetRowBounds(i, math.Inf(-1), a+slack-miss*(1+slack))
		case 1:
			p.SetRowBounds(i, a-slack+miss*(1+slack), math.Inf(1))
		case 2:
			p.SetRowBounds(i, a-slack+miss*(1+slack), a+slack+miss*(1+slack))
		default:
			p.SetRowBounds(i, a+miss, a+miss)
		}
	}
	return p, x
}

// TestEvaluateMatchesFixedSolve is the differential test behind branch
// and bound checking rounded 0-1 points with Evaluate instead of a
// solve of the fully fixed program.
func TestEvaluateMatchesFixedSolve(t *testing.T) {
	// Twelve rows each over by 9e-8, under the per-row tolerance but
	// 1.08e-6 in total: the start looks feasible row by row, yet the
	// solve must still report the total.
	p := lp.NewProblem()
	var es []lp.Entry
	for i := 0; i < 12; i++ {
		es = append(es, lp.Entry{Row: p.AddRow(math.Inf(-1), 1-9e-8), Coef: 1})
	}
	p.AddCol(1, 0, 1, es...)
	checkEvaluate(t, p, []float64{1}, "rows each within tolerance")

	rng := rand.New(rand.NewSource(16))
	feasible := 0
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		p, x := randomFixedProblem(rng)
		if _, v := p.Evaluate(x); v <= lp.InfeasTol {
			feasible++
		}
		checkEvaluate(t, p, x, "trial "+strconv.Itoa(trial))
	}
	if feasible < trials/10 || feasible > trials*9/10 {
		t.Fatalf("%d of %d draws feasible; the generator no longer covers both outcomes", feasible, trials)
	}
}

// FuzzEvaluate decodes arbitrary bytes into a sparse LP and a 0-1 point
// and runs the same check as TestEvaluateMatchesFixedSolve. Row bounds
// carry a fine offset of up to 2.55e-6, so the fuzzer can reach the
// infeasibility threshold.
func FuzzEvaluate(f *testing.F) {
	f.Add([]byte{3, 4, 1, 200, 13, 7, 90, 41, 0, 255, 18, 6})
	f.Add([]byte{1, 1, 0, 100, 128, 1, 160})
	f.Add([]byte{8, 12, 0, 50, 1, 150, 2, 99, 77, 140, 210, 3, 16, 255, 0, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		m := 1 + int(next())%16
		n := 1 + int(next())%24
		p := lp.NewProblem()
		for i := 0; i < m; i++ {
			v := float64(int(next())-128)/16 + float64(next())*1e-8
			switch next() % 4 {
			case 0:
				p.AddRow(math.Inf(-1), v)
			case 1:
				p.AddRow(v, math.Inf(1))
			case 2:
				p.AddRow(v, v+float64(next())/16)
			default:
				p.AddRow(v, v)
			}
		}
		x := make([]float64, n)
		for j := 0; j < n; j++ {
			var es []lp.Entry
			for k := 0; k < 1+int(next())%4; k++ {
				row := int(next()) % m
				dup := false
				for _, e := range es {
					dup = dup || e.Row == row
				}
				if c := float64(int(next())-128) / 32; c != 0 && !dup {
					es = append(es, lp.Entry{Row: row, Coef: c})
				}
			}
			p.AddCol(float64(int(next())-128)/16, 0, 1, es...)
			x[j] = float64(next() % 2)
		}
		checkEvaluate(t, p, x, "fuzz")
	})
}
