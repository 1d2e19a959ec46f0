import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apply, dense_rref, random_fraction
from toriclg import linalg
from toriclg.linalg import (
    CompositionError,
    LinalgError,
    LinearSolver,
    NoSolutionError,
    RationalMatrix,
    block_matrix,
    cohomology_at,
    dot,
    eliminate,
    first_violated_row,
    inverse,
    kernel_basis,
    lift,
    matrix_from_action,
    rank,
    scale_vector,
    solve_inequalities,
    solve_system,
    vector,
)


def mat(rows):
    return RationalMatrix.from_rows(rows)


class TestKernel:
    def test_single_row(self):
        assert kernel_basis(mat([[1, 1]])) == [vector([1, -1])]

    def test_zero_map(self):
        assert kernel_basis(RationalMatrix.zeros(2, 2)) == [vector([1, 0]), vector([0, 1])]

    def test_identity(self):
        assert kernel_basis(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == []

    def test_empty_shapes(self):
        assert kernel_basis(RationalMatrix.zeros(0, 3)) == [vector([1, 0, 0]), vector([0, 1, 0]), vector([0, 0, 1])]
        assert kernel_basis(RationalMatrix.zeros(3, 0)) == []

    def test_kernel_annihilates(self):
        a = mat([[2, 1, -1], [0, 3, 3]])
        for v in kernel_basis(a):
            assert all(x == 0 for x in apply(a, v))


class TestLift:
    def test_forced(self):
        b = mat([[1], [-1]])
        c = Fraction(7, 2)
        assert lift(b, [c, -c]) == (c,)

    def test_zero_to_zero(self):
        b = mat([[1, 2], [3, 4], [0, 1]])
        assert lift(b, [0, 0, 0]) == (0, 0)

    def test_pivot_choice(self):
        assert lift(mat([[1, 0], [0, 0]]), [5, 0]) == (5, 0)

    def test_no_solution(self):
        with pytest.raises(NoSolutionError):
            lift(mat([[1, 0], [0, 0]]), [0, 1])

    def test_linearity(self):
        rng = random.Random(3)
        b = mat([[1, 2, 0], [0, 1, 1], [1, 3, 1]])
        for _ in range(20):
            x = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
            y = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
            ax, ay = apply(b, x), apply(b, y)
            s = lift(b, [p + q for p, q in zip(ax, ay)])
            assert s == tuple(p + q for p, q in zip(lift(b, ax), lift(b, ay)))


class TestSolver:
    def test_matches_lift(self):
        rng = random.Random(5)
        b = mat([[2, 0, 1], [0, 0, 3]])
        solver = LinearSolver(b)
        for _ in range(10):
            x = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            a = apply(b, x)
            assert solver.solve(RationalMatrix.from_columns([a], rows=2)).column(0) == lift(b, a)

    def test_inverse(self):
        m = mat([[2, 1], [1, 1]])
        assert (inverse(m) @ m) == mat([[1, 0], [0, 1]])


class TestCohomologyAt:
    def test_zero_maps(self):
        slot = cohomology_at(RationalMatrix.zeros(4, 0), RationalMatrix.zeros(0, 4))
        assert slot.dim == 4

    def test_exact_segment(self):
        slot = cohomology_at(mat([[1]]), RationalMatrix.zeros(0, 1))
        assert slot.dim == 0

    def test_koszul_middle(self):
        # two-variable contraction complex in the quadratic slice, reduced by hand:
        # wedge^2 -> wedge^1 x (deg-1 polys) -> deg-2 polys
        d2 = mat([[0], [-1], [1], [0]])          # e12 -> x e2 - y e1
        d1 = mat([[1, 0, 0, 0],                  # x e1 -> x^2
                  [0, 1, 1, 0],                  # y e1, x e2 -> xy
                  [0, 0, 0, 1]])                 # y e2 -> y^2
        slot = cohomology_at(d2, d1)
        assert slot.dim == 0

    def test_composition_guard(self):
        with pytest.raises(CompositionError):
            cohomology_at(mat([[1], [0]]), mat([[1, 0]]))

    def test_slot_invariants(self):
        d_in = mat([[1, 0], [0, 0], [0, 0]])
        d_out = RationalMatrix.zeros(0, 3)
        slot = cohomology_at(d_in, d_out)
        assert slot.dim == 2
        assert slot.representatives == mat([[0, 0], [1, 0], [0, 1]])
        assert slot.reduce(slot.representatives) == mat([[1, 0], [0, 1]])
        assert slot.reduce(d_in @ mat([[5], [7]])) == RationalMatrix.zeros(2, 1)
        assert slot.reduce(RationalMatrix.zeros(3, 0)) == RationalMatrix.zeros(2, 0)

    def test_shared_differential_is_eliminated_once(self, monkeypatch):
        # d1 is d_out of the first slot and d_in of the second
        real, eliminated = linalg.eliminate, []

        def spy(a):
            if a._elimination is None:
                eliminated.append(a)  # held, so no two live matrices share an id
            return real(a)

        monkeypatch.setattr(linalg, "eliminate", spy)
        d0, d1, d2 = mat([[1], [-1], [0]]), mat([[1, 1, 0], [2, 2, 0]]), mat([[2, -1]])
        first, second = cohomology_at(d0, d1), cohomology_at(d1, d2)
        assert (first.dim, second.dim) == (1, 0)
        assert sum(a is d1 for a in eliminated) == 1
        assert len({id(a) for a in eliminated}) == len(eliminated)
        assert first._d_out is d1 and second._d_out is d2

    def test_fraction_entry_takes_the_exact_path(self):
        d_out = mat([[Fraction(1, 2), 1]])
        d_in = mat([[2], [-1]])
        slot = cohomology_at(d_in, d_out)
        assert (slot.dim, rank(d_in)) == (0, 1)
        assert slot._d_out is d_out

    def test_zero_slot_reduces_cocycles_only(self):
        d_in, d_out = mat([[1], [-1]]), mat([[1, 1]])
        slot = cohomology_at(d_in, d_out)
        assert (slot.dim, slot.representatives) == (0, RationalMatrix.zeros(2, 0))
        assert slot.reduce(mat([[3, 0], [-3, 0]])) == RationalMatrix.zeros(0, 2)
        with pytest.raises(NoSolutionError):
            slot.reduce(mat([[3, 1], [-3, 0]]))
        with pytest.raises(LinalgError, match="shape"):
            slot.reduce(mat([[3]]))


class TestExactEntries:
    def test_integral_entries_are_ints(self):
        m = RationalMatrix(2, 2, {(0, 0): Fraction(4, 2), (0, 1): Fraction(1, 2), (1, 1): True})
        assert m.entries == {(0, 0): 2, (0, 1): Fraction(1, 2), (1, 1): 1}
        assert [type(v) for v in m.entries.values()] == [int, Fraction, int]

    def test_float_entry_rejected(self):
        with pytest.raises(LinalgError, match="float"):
            mat([[1, 0.5]])
        with pytest.raises(LinalgError, match="float"):
            RationalMatrix(1, 1, {(0, 0): 0.0})

    def test_vector_refuses_float(self):
        assert vector([1, Fraction(1, 2)]) == (Fraction(1), Fraction(1, 2))
        assert all(type(v) is Fraction for v in vector([1, 2]))
        with pytest.raises(LinalgError, match="float"):
            vector([0.1])

    def test_dot_refuses_float(self):
        assert dot([1, 2], [3, Fraction(1, 2)]) == 4
        assert type(dot([1, 2], [3, 4])) is Fraction
        with pytest.raises(LinalgError, match="float"):
            dot([1, 2], [3, 0.5])

    def test_scale_vector_refuses_float(self):
        assert scale_vector(2, (1, Fraction(1, 2))) == (2, 1)
        assert all(type(v) is Fraction for v in scale_vector(2, (1, 3)))
        with pytest.raises(LinalgError, match="float"):
            scale_vector(0.5, (1,))
        with pytest.raises(LinalgError, match="float"):
            scale_vector(1, (0.5,))

    def test_solve_inequalities_refuses_float(self):
        assert solve_inequalities([((1,), 1)], 1) == (Fraction(1),)
        with pytest.raises(LinalgError, match="float"):
            solve_inequalities([((0.1,), 1)], 1)
        with pytest.raises(LinalgError, match="float"):
            solve_inequalities([((1,), 0.5)], 1)

    def test_rref_keeps_integer_rows_integral(self):
        elim = eliminate(mat([[-1, 2, 3], [0, 0, 1]]))
        assert elim.rows == ({0: 1, 1: -2}, {2: 1})
        assert all(type(v) is int for row in elim.rows for v in row.values())

    def test_non_unit_pivot_is_exact(self):
        elim = eliminate(mat([[2, 1, 4]]))
        assert elim.rows == ({0: 1, 1: Fraction(1, 2), 2: 2},)
        assert [type(v) for v in elim.rows[0].values()] == [int, Fraction, int]
        assert kernel_basis(mat([[2, 4, 6]])) == [(2, -1, 0), (3, 0, -1)]


class TestFourierMotzkin:
    def test_stage_rows_are_primitive_int_tuples(self, monkeypatch):
        stages = []
        normalise = linalg._normalise_rows

        def spy(system):
            stages.append(normalise(system))
            return stages[-1]

        monkeypatch.setattr(linalg, "_normalise_rows", spy)
        # feasible at (1, 1, 1), with Fraction coefficients and bounds
        ineqs = [((Fraction(1, 2), Fraction(-1, 3), 0), Fraction(1, 6)),
                 ((-2, 3, Fraction(3, 4)), -1),
                 ((0, Fraction(-5, 2), 1), Fraction(-7, 3)),
                 ((1, 1, 1), 2),
                 ((Fraction(-1, 2), 0, -1), -9)]
        x = solve_inequalities(ineqs, 3)
        assert len(stages) == 4 and all(stages[:3])  # three stages, then the final check
        for rows in stages:
            for c, r in rows:
                assert type(c) is tuple and all(type(v) is int for v in (*c, r))
                assert math.gcd(*c, r) == 1
        assert all(type(v) is Fraction for v in x)
        for c, r in ineqs:
            assert dot(c, x) >= r


@st.composite
def feasible_systems(draw):
    """(eqs, ineqs, nvars) with a known rational solution."""
    nvars = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(small_entries, min_size=nvars, max_size=nvars)
    eqs = draw(st.lists(row, max_size=2))
    basis = kernel_basis(mat(eqs) if eqs else RationalMatrix.zeros(0, nvars))
    weights = draw(st.lists(small_entries, min_size=len(basis), max_size=len(basis)))
    point = [sum((w * b[t] for w, b in zip(weights, basis)), Fraction(0)) for t in range(nvars)]
    coeff = st.builds(Fraction, small_entries, st.integers(min_value=1, max_value=3))
    ineqs = []
    for c in draw(st.lists(st.lists(coeff, min_size=nvars, max_size=nvars), max_size=6)):
        ineqs.append((tuple(c), dot(c, point) - draw(st.integers(min_value=0, max_value=3))))
    return eqs, ineqs, nvars


@settings(max_examples=150, deadline=None)
@given(feasible_systems())
def test_solve_system_satisfies_every_row_exactly(system):
    eqs, ineqs, nvars = system
    x = solve_system(eqs, ineqs, nvars)
    assert x is not None
    assert all(dot(e, x) == 0 for e in eqs)
    assert all(dot(c, x) >= r for c, r in ineqs)
    assert first_violated_row(eqs, ineqs, x) is None


def test_first_violated_row_counts_equalities_first():
    eqs = [(1, -1)]
    ineqs = [((1, 0), 1), ((0, 1), Fraction(1, 2))]
    assert first_violated_row(eqs, ineqs, (1, 1)) is None
    assert first_violated_row(eqs, ineqs, (0, 1)) == 0  # the first inequality fails too
    assert first_violated_row(eqs, ineqs, (Fraction(1, 3), Fraction(1, 3))) == 1
    assert first_violated_row(eqs, ineqs, (Fraction(1, 2), Fraction(1, 2))) == 1
    assert first_violated_row([], ineqs, (1, 0)) == 1
    assert first_violated_row([], ineqs, (1, Fraction(1, 2))) is None


@pytest.mark.parametrize("eqs, ineqs, x", [
    ([(1, -1)], [], (1,)),  # a short vector is not read as padded with zeros
    ([], [((1, 0, 0), 1)], (1, 1)),  # nor a long row as truncated
])
def test_first_violated_row_refuses_unequal_lengths(eqs, ineqs, x):
    with pytest.raises(ValueError):
        first_violated_row(eqs, ineqs, x)


def test_solve_system_refuses_a_short_equality_row():
    with pytest.raises(LinalgError, match="ragged"):
        solve_system([(1, -1), (1,)], [], 2)


class TestBlockMatrix:
    def test_assembly(self):
        b = block_matrix([1, 2], [2], {(0, 0): mat([[1, 2]]), (1, 0): mat([[3, 4], [5, 6]])})
        assert b.to_rows() == mat([[1, 2], [3, 4], [5, 6]]).to_rows()

    def test_action_builder(self):
        m = matrix_from_action(2, 2, lambda j: {j: Fraction(j + 1)})
        assert m == mat([[1, 0], [0, 2]])


small_entries = st.integers(min_value=-5, max_value=5)


@st.composite
def sparse_matrices(draw, max_dim=6):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if draw(st.booleans()):
                entries[(i, j)] = Fraction(draw(small_entries))
    return RationalMatrix(rows, cols, entries)


@settings(max_examples=120, deadline=None)
@given(sparse_matrices())
def test_rank_nullity(a):
    assert rank(a) + len(kernel_basis(a)) == a.cols


@settings(max_examples=120, deadline=None)
@given(sparse_matrices(max_dim=5), st.lists(small_entries, min_size=5, max_size=5))
def test_lift_roundtrip(b, xs):
    x = [Fraction(v) for v in xs[:b.cols]] + [Fraction(0)] * max(0, b.cols - len(xs))
    a = apply(b, x)
    assert apply(b, lift(b, a)) == a


def random_sparse_rows(rng: random.Random, fractions: bool) -> list[list]:
    """A sparse matrix, wide, tall or square, often rank-deficient: some rows
    repeat, negate or combine earlier ones, so that fill-in cancels entries."""
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.4:
            a, b = rng.choice(rows), rng.choice(rows)
            c = rng.choice((1, -1, 2))
            rows.append([c * x + y if rng.random() < 0.5 else c * x for x, y in zip(a, b)])
            continue
        row = [0] * ncols
        for j in rng.sample(range(ncols), rng.randint(0, min(3, ncols))):
            row[j] = rng.choice((1, -1, 2, -3)) if not fractions else random_fraction(rng) or 1
        rows.append(row)
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("fractions", [False, True])
def test_eliminate_equals_dense_gauss_jordan(fractions):
    rng = random.Random(2002 + fractions)
    for _ in range(300):
        rows = random_sparse_rows(rng, fractions)
        elim = eliminate(mat(rows))
        want_rows, want_pivots, want_free = dense_rref(rows, len(rows[0]))
        assert (list(elim.rows), list(elim.pivots), list(elim.free)) == (
            want_rows, want_pivots, want_free), rows


def dense_solve(rows: list[list], a) -> tuple | None:
    """x with b x = a and free variables zero, read off the dense RREF of [b | a];
    None when a is outside the image of b."""
    ncols = len(rows[0])
    rref, pivots, _ = dense_rref([row + [v] for row, v in zip(rows, a)], ncols + 1)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for row, c in zip(rref, pivots):
        x[c] = row.get(ncols, 0)
    return tuple(x)


@pytest.mark.parametrize("fractions", [False, True])
def test_solver_batch_equals_dense_solves(fractions):
    rng = random.Random(1999 + fractions)
    refused = 0
    for _ in range(200):
        rows = random_sparse_rows(rng, fractions)
        b = mat(rows)
        solver = LinearSolver(b)
        # right hand sides in the image of b, solved in one batch and one by one
        batch = [apply(b, [rng.choice((0, 0, 1, -2, Fraction(1, 3))) for _ in range(b.cols)])
                 for _ in range(rng.randint(0, 4))]
        got = solver.solve(RationalMatrix.from_columns(batch, rows=b.rows))
        assert got.shape == (b.cols, len(batch))
        assert [got.column(j) for j in range(len(batch))] == [dense_solve(rows, a) for a in batch]
        # one unit column outside the image refuses the whole batch
        units = [tuple(int(i == j) for i in range(b.rows)) for j in range(b.rows)]
        outside = [e for e in units if dense_solve(rows, e) is None]
        if outside:
            refused += 1
            with pytest.raises(NoSolutionError):
                solver.solve(RationalMatrix.from_columns(batch + outside[:1], rows=b.rows))
    assert refused > 20


def test_every_constructor_refuses_floats_and_out_of_range_entries():
    with pytest.raises(LinalgError, match="float"):
        RationalMatrix(2, 2, {(0, 0): 1, (1, 1): 0.5})
    with pytest.raises(LinalgError, match="float"):
        RationalMatrix.from_rows([[1, 2], [0.0, 1]])
    with pytest.raises(LinalgError, match="float"):
        RationalMatrix.from_columns([[1], [2.0]], rows=1)
    with pytest.raises(LinalgError, match="float"):
        matrix_from_action(1, 1, lambda j: {0: 1.5})
    with pytest.raises(LinalgError, match=r"entry \(2,0\) outside a 2x2 matrix"):
        RationalMatrix(2, 2, {(0, 0): 1, (2, 0): 1})
    with pytest.raises(LinalgError, match=r"entry \(0,-1\) outside a 2x2 matrix"):
        RationalMatrix(2, 2, {(0, -1): Fraction(1, 2)})
    # a zero entry is stripped, but only after its key is checked
    with pytest.raises(LinalgError, match=r"entry \(0,3\) outside a 1x3 matrix"):
        RationalMatrix(1, 3, {(0, 0): 1, (0, 3): 0})
    with pytest.raises(LinalgError, match="outside"):
        matrix_from_action(1, 2, lambda j: {1: 0})
    with pytest.raises(LinalgError, match="block"):
        block_matrix([1], [1], {(0, 0): mat([[1, 2]])})
    assert RationalMatrix(1, 3, {(0, 0): 0, (0, 1): Fraction(2, 2), (0, 2): -1}).entries == {
        (0, 1): 1, (0, 2): -1}


def test_cohomology_base_change_invariance():
    # dims of ker/im are preserved under a compatible change of basis
    rng = random.Random(17)
    from helpers import random_unimodular

    for _ in range(30):
        nb = rng.randint(1, 5)
        na, nc = rng.randint(0, 4), rng.randint(0, 4)
        d_out = RationalMatrix(nc, nb, {(i, j): Fraction(rng.randint(-2, 2))
                                        for i in range(nc) for j in range(nb)
                                        if rng.random() < 0.5})
        ker = kernel_basis(d_out)
        cols = []
        for _ in range(na):
            col = [Fraction(0)] * nb
            for b in ker:
                c = rng.randint(-2, 2)
                if c:
                    col = [x + c * y for x, y in zip(col, b)]
            cols.append(tuple(col))
        d_in = RationalMatrix.from_columns(cols, rows=nb) if cols else RationalMatrix.zeros(nb, 0)
        base = cohomology_at(d_in, d_out)
        u = RationalMatrix.from_rows(random_unimodular(rng, nb))
        changed = cohomology_at(u @ d_in, d_out @ inverse(u))
        assert base.dim == changed.dim
