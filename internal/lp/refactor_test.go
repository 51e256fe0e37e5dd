package lp

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// refactorDense is the original dense refactorization, kept as the
// reference for the hypersparse one: each basis column is transformed by
// every eta recorded so far (ftran), and the pivot search, eta recording
// and clearing scan all m rows. Peeling order, pivot choice and the
// final basis remap are the same as in refactor, so the two must build
// the same eta file, basis and basic values bit for bit.
func (s *Solver) refactorDense() bool {
	s.stats.Refactors++
	m := s.m
	s.etaRow = s.etaRow[:0]
	s.etaPiv = s.etaPiv[:0]
	s.etaIdx = s.etaIdx[:0]
	s.etaVal = s.etaVal[:0]
	s.etaStart = append(s.etaStart[:0], 0)
	s.updates, s.updNNZ = 0, 0

	rowStart := s.rowStart
	for i := range rowStart {
		rowStart[i] = 0
	}
	nnz := 0
	for k := 0; k < m; k++ {
		es := s.entries[s.basis[k]]
		s.colCnt[k] = int32(len(es))
		nnz += len(es)
		for _, e := range es {
			rowStart[e.Row+1]++
		}
	}
	for i := 0; i < m; i++ {
		rowStart[i+1] += rowStart[i]
	}
	s.rowPos = growI32(s.rowPos, nnz)
	fill := s.rowFill
	for i := range fill {
		fill[i] = 0
	}
	for k := 0; k < m; k++ {
		for _, e := range s.entries[s.basis[k]] {
			s.rowPos[rowStart[e.Row]+fill[e.Row]] = int32(k)
			fill[e.Row]++
		}
	}

	pivoted := make([]bool, m)
	for i := 0; i < m; i++ {
		s.colDone[i] = false
		s.posRow[i] = -1
	}
	w := s.w
	for i := range w {
		w[i] = 0
	}

	process := func(k int) bool {
		for _, e := range s.entries[s.basis[k]] {
			w[e.Row] += e.Coef
		}
		s.ftran(w)
		r, maxAbs := -1, pivTol
		for i := 0; i < m; i++ {
			if pivoted[i] {
				continue
			}
			if a := math.Abs(w[i]); a > maxAbs {
				r, maxAbs = i, a
			}
		}
		if r < 0 {
			return false
		}
		s.appendEta(w, r)
		for i := range w {
			w[i] = 0
		}
		s.posRow[k] = int32(r)
		s.colDone[k] = true
		pivoted[r] = true
		for t := rowStart[r]; t < rowStart[r+1]; t++ {
			k2 := s.rowPos[t]
			s.colCnt[k2]--
			if s.colCnt[k2] == 1 && !s.colDone[k2] {
				s.queue = append(s.queue, k2)
			}
		}
		return true
	}

	s.queue = s.queue[:0]
	for k := 0; k < m; k++ {
		if s.colCnt[k] == 1 {
			s.queue = append(s.queue, int32(k))
		}
	}
	for head := 0; head < len(s.queue); head++ {
		k := int(s.queue[head])
		if s.colDone[k] {
			continue
		}
		if !process(k) {
			return false
		}
	}
	for k := 0; k < m; k++ {
		if !s.colDone[k] {
			if !process(k) {
				return false
			}
		}
	}

	for k := 0; k < m; k++ {
		s.newBasis[s.posRow[k]] = s.basis[k]
	}
	copy(s.basis, s.newBasis)

	res := s.res
	for k := range res {
		res[k] = 0
	}
	isBasic := s.isBasic
	for j := range isBasic {
		isBasic[j] = false
	}
	for _, j := range s.basis {
		isBasic[j] = true
	}
	for j := 0; j < len(s.xval); j++ {
		if isBasic[j] || s.xval[j] == 0 {
			continue
		}
		for _, e := range s.entries[j] {
			res[e.Row] -= e.Coef * s.xval[j]
		}
	}
	s.ftran(res)
	for i := 0; i < m; i++ {
		s.xb[i] = res[i]
		s.xval[s.basis[i]] = res[i]
		res[i] = 0
	}
	return true
}

// sameRefactor refactors the basis each solver holds, one with refactor
// and one with refactorDense (the two solvers must be in the same
// state), and reports the first difference in the outcome, the eta file,
// the basis or the basic values; floats compare by their bits.
func sameRefactor(t *testing.T, label string, sparse, dense *Solver) {
	t.Helper()
	okS, okD := sparse.refactor(), dense.refactorDense()
	if okS != okD {
		t.Fatalf("%s: refactor = %v, dense = %v", label, okS, okD)
	}
	eqI32 := func(name string, a, b []int32) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: len(%s) = %d, dense %d", label, name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s[%d] = %d, dense %d", label, name, i, a[i], b[i])
			}
		}
	}
	eqF := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: len(%s) = %d, dense %d", label, name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v, dense %v", label, name, i, a[i], b[i])
			}
		}
	}
	eqI32("etaRow", sparse.etaRow, dense.etaRow)
	eqF("etaPiv", sparse.etaPiv, dense.etaPiv)
	eqI32("etaStart", sparse.etaStart, dense.etaStart)
	eqI32("etaIdx", sparse.etaIdx, dense.etaIdx)
	eqF("etaVal", sparse.etaVal, dense.etaVal)
	if !okS {
		return
	}
	for i := range sparse.basis {
		if sparse.basis[i] != dense.basis[i] {
			t.Fatalf("%s: basis[%d] = %d, dense %d", label, i, sparse.basis[i], dense.basis[i])
		}
	}
	eqF("xb", sparse.xb, dense.xb)
}

// twins returns two solvers brought to the same state by the same
// deterministic sequence of calls.
func twins(run func(*Solver)) (*Solver, *Solver) {
	a, b := NewSolver(), NewSolver()
	run(a)
	run(b)
	return a, b
}

// checkRefactorBases compares the two refactorizations on p's bases: the
// all-artificial cold-start basis, the basis a cold solve ends at, the
// basis a warm start ends at after one column is fixed, and random
// (often singular) column selections picked by rng.
func checkRefactorBases(t *testing.T, p *Problem, rng *rand.Rand, label string) {
	t.Helper()
	m, n := p.NumRows(), p.NumCols()
	solve := func(s *Solver) {
		if _, err := s.Solve(p); err != nil {
			t.Fatal(err)
		}
	}

	a, b := twins(func(s *Solver) {
		solve(s)
		for i := 0; i < m; i++ {
			s.basis[i] = n + m + i
		}
	})
	sameRefactor(t, label+" cold start", a, b)

	a, b = twins(solve)
	sameRefactor(t, label+" after solve", a, b)

	col, fix := rng.Intn(n), rng.Float64()
	a, b = twins(func(s *Solver) {
		solve(s)
		snap := s.Snapshot()
		q := p.Clone()
		q.SetColBounds(col, fix, fix)
		if _, err := s.SolveFrom(q, snap); err != nil {
			t.Fatal(err)
		}
	})
	sameRefactor(t, label+" after warm start", a, b)

	for trial := 0; trial < 3; trial++ {
		pick := rng.Perm(n + 2*m)[:m]
		a, b = twins(func(s *Solver) {
			solve(s)
			copy(s.basis, pick)
		})
		sameRefactor(t, label+" random basis", a, b)
	}
}

// randomSparseProblem builds a random LP with tens of rows and a few
// ±1-heavy entries per column, large enough for refactorization to
// fill rows in and chain etas.
func randomSparseProblem(rng *rand.Rand) *Problem {
	p := NewProblem()
	m := 5 + rng.Intn(60)
	n := m/2 + rng.Intn(2*m)
	for i := 0; i < m; i++ {
		switch rng.Intn(3) {
		case 0:
			p.AddRow(math.Inf(-1), float64(1+rng.Intn(4)))
		case 1:
			p.AddRow(float64(-rng.Intn(3)), math.Inf(1))
		default:
			v := float64(rng.Intn(3))
			p.AddRow(v, v)
		}
	}
	for j := 0; j < n; j++ {
		var es []Entry
		for _, i := range rng.Perm(m)[:1+rng.Intn(4)] {
			c := float64(1 - 2*rng.Intn(2))
			if rng.Intn(4) == 0 {
				c *= math.Round(rng.Float64()*16) / 4
			}
			if c != 0 {
				es = append(es, Entry{Row: i, Coef: c})
			}
		}
		p.AddCol(math.Round((rng.Float64()*6-3)*4)/4, 0, float64(1+rng.Intn(3)), es...)
	}
	return p
}

// TestRefactorMatchesDense checks that the hypersparse refactorization
// builds exactly the dense one's eta file, basis and basic values.
func TestRefactorMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		checkRefactorBases(t, randomSparseProblem(rng), rng, "trial "+strconv.Itoa(trial))
	}
}

// FuzzRefactor decodes arbitrary bytes into a sparse LP and a seed for
// the bases it refactors, and runs the same comparison as
// TestRefactorMatchesDense.
func FuzzRefactor(f *testing.F) {
	f.Add([]byte{12, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{40, 30, 77, 140, 210, 3, 16, 255, 0, 128})
	f.Add([]byte{3, 3, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
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
		m := 1 + int(next())%48
		n := 1 + int(next())%64
		rng := rand.New(rand.NewSource(int64(next())))
		p := NewProblem()
		for i := 0; i < m; i++ {
			switch next() % 3 {
			case 0:
				p.AddRow(math.Inf(-1), float64(next()%8))
			case 1:
				p.AddRow(-float64(next()%4), math.Inf(1))
			default:
				v := float64(next()%4) - 1
				p.AddRow(v, v)
			}
		}
		for j := 0; j < n; j++ {
			var es []Entry
			for k := 0; k < 1+int(next())%4; k++ {
				row := int(next()) % m
				dup := false
				for _, e := range es {
					dup = dup || e.Row == row
				}
				if c := float64(int(next())-128) / 32; c != 0 && !dup {
					es = append(es, Entry{Row: row, Coef: c})
				}
			}
			p.AddCol(float64(int(next())-128)/16, 0, float64(1+next()%4), es...)
		}
		checkRefactorBases(t, p, rng, "fuzz")
	})
}
