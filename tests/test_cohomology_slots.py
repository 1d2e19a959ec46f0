"""Properties of cohomology slots built from one elimination per differential.

On random small complexes and on every fan file in ``fans/``: the
representatives reduce to the unit vectors, coboundaries reduce to zero,
a non-cocycle is rejected, and dim = nullity(d_out) - rank(d_in).  The
representatives are also compared with their definition: the kernel
basis vectors kept by the greedy left-to-right choice over
[image pivot columns of d_in | kernel basis of d_out].
"""

import math
import random
from fractions import Fraction

import pytest

from conftest import FAN_DIR, load_fan
from helpers import apply
from toriclg.cech import (
    CoverSimplex,
    constant_total_cohomology,
    forms_total_cohomology,
    verify_exactness,
)
from toriclg.fan import fan_from_data
from toriclg.linalg import (
    LinearSolver,
    NoSolutionError,
    RationalMatrix,
    cohomology_at,
    eliminate,
    image_pivot_columns,
    kernel_basis,
    rank,
)
from toriclg.twisted import build_twisted, default_t_max, lg_cohomology, lsop_check, ring_structure

FAN_NAMES = sorted(p.stem for p in FAN_DIR.glob("*.json"))


def random_complex(rng: random.Random) -> tuple[RationalMatrix, RationalMatrix]:
    """d_in, d_out with d_out d_in = 0 and small integer entries."""
    n_mid = rng.randint(0, 7)
    n_out, n_in = rng.randint(0, 5), rng.randint(0, 6)
    d_out = RationalMatrix(n_out, n_mid, {(i, j): Fraction(rng.randint(-2, 2))
                                          for i in range(n_out) for j in range(n_mid)
                                          if rng.random() < 0.4})
    kernel = kernel_basis(d_out)
    ent = {}
    for j in range(n_in):
        for b in kernel:
            c = rng.choice((0, 0, 1, -1, 2, Fraction(1, 2)))
            for i, v in enumerate(b):
                if c and v:
                    ent[(i, j)] = ent.get((i, j), Fraction(0)) + c * v
    return RationalMatrix(n_mid, n_in, ent), d_out


def greedy_representatives(d_in: RationalMatrix, d_out: RationalMatrix) -> list:
    image = [d_in.column(c) for c in image_pivot_columns(d_in)]
    kept, chosen = [], list(image)
    for k in kernel_basis(d_out):
        trial = RationalMatrix.from_columns(chosen + [k], rows=d_in.rows)
        if rank(trial) == len(chosen) + 1:
            chosen.append(k)
            kept.append(k)
    return kept


def combine(coeffs, vectors, n):
    out = [Fraction(0)] * n
    for c, v in zip(coeffs, vectors):
        out = [x + c * y for x, y in zip(out, v)]
    return tuple(out)


def columns(vectors, n):
    return RationalMatrix.from_columns(list(vectors), rows=n)


def cols_of(m: RationalMatrix) -> list:
    return [m.column(j) for j in range(m.cols)]


def check_slot(d_in: RationalMatrix, d_out: RationalMatrix, slot, rng: random.Random):
    n = d_in.rows
    reps = cols_of(slot.representatives)
    assert slot.representatives.shape == (n, slot.dim)
    assert slot.dim == eliminate(d_out).nullity - rank(d_in)
    units = [tuple(Fraction(int(i == j)) for i in range(slot.dim)) for j in range(slot.dim)]
    assert cols_of(slot.reduce(slot.representatives)) == units
    for _ in range(3):
        x = [Fraction(rng.randint(-3, 3)) for _ in range(d_in.cols)]
        boundary = apply(d_in, x)
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(slot.dim)]
        cocycle = combine([1] + coeffs, [boundary] + reps, n)
        assert cols_of(slot.reduce(columns([boundary, cocycle], n))) == [(Fraction(0),) * slot.dim,
                                                                          tuple(coeffs)]
    for j in range(n):
        if any(c == j for _, c in d_out.entries):
            with pytest.raises(NoSolutionError):
                slot.reduce(columns([tuple(Fraction(int(i == j)) for i in range(n))], n))
            break


def test_random_complexes():
    rng = random.Random(2024)
    for _ in range(300):
        d_in, d_out = random_complex(rng)
        slot = cohomology_at(d_in, d_out)
        check_slot(d_in, d_out, slot, rng)
        reps = cols_of(slot.representatives)
        assert reps == greedy_representatives(d_in, d_out)
        # a batch reduces as its columns do one by one, and one non-cocycle refuses it
        n = d_in.rows
        batch = [combine([Fraction(rng.randint(-3, 3)) for _ in reps], reps, n) for _ in range(4)]
        batch += [d_in.column(j) for j in range(d_in.cols)]
        assert cols_of(slot.reduce(columns(batch, n))) == [
            cols_of(slot.reduce(columns([v], n)))[0] for v in batch]
        bad = [j for j in range(n) if any(c == j for _, c in d_out.entries)]
        if bad:
            outside = tuple(Fraction(int(i == bad[0])) for i in range(n))
            with pytest.raises(NoSolutionError):
                slot.reduce(columns(batch + [outside], n))


def test_elimination_is_cached_on_the_matrix():
    d = RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    elim = eliminate(d)
    assert eliminate(d) is elim
    assert (elim.rank, elim.pivots, elim.free) == (2, (0, 1), (2,))
    assert rank(d) == 2 and image_pivot_columns(d) == [0, 1]
    assert kernel_basis(d) == [(Fraction(1), Fraction(1), Fraction(-1))]


@pytest.mark.parametrize("name", FAN_NAMES)
def test_twisted_slots_of_fan_files(name):
    fan = load_fan(name)
    tc = build_twisted(fan)
    rng = random.Random(name)
    t_max = default_t_max(fan)
    coh = lg_cohomology(tc, t_max)
    for t in range(t_max + 1):
        d_in = tc.total_differential(t - 1) if t else RationalMatrix.zeros(len(tc.total_basis(0)), 0)
        d_out = tc.total_differential(t)
        slot = coh.slots[t]
        check_slot(d_in, d_out, slot, rng)
        assert cols_of(slot.representatives) == greedy_representatives(d_in, d_out)
        # adjacent slots share the one cached differential between them
        assert tc.total_differential(t) is d_out
        assert slot._d_out is d_out
    # the ring reads the slots lg_cohomology left on the complex
    assert ring_structure(tc, t_max).dims == coh.dims
    assert all(tc._slots[t] is coh.slots[t] for t in range(t_max + 1))


@pytest.mark.parametrize("name", FAN_NAMES)
def test_constant_total_slots_of_fan_files(name):
    fan = load_fan(name)
    cs = CoverSimplex(fan)
    rng = random.Random(name)
    t_max = default_t_max(fan)
    coh = constant_total_cohomology(cs, t_max)
    for t in range(t_max + 1):
        d_out = cs.const_total_matrix(t)
        d_in = cs.const_total_matrix(t - 1) if t else RationalMatrix.zeros(d_out.cols, 0)
        check_slot(d_in, d_out, coh.slots[t], rng)


@pytest.mark.parametrize("name", FAN_NAMES)
def test_interior_totals_drop_their_eliminations(name):
    # a total differential's RREF is freed once the slots on both sides of it
    # are built; the last one keeps it for slot t_max + 1
    fan = load_fan(name)
    t_max = default_t_max(fan)
    tc, cs = build_twisted(fan), CoverSimplex(fan)
    lg_cohomology(tc, t_max)
    constant_total_cohomology(cs, t_max)
    forms_total_cohomology(cs, t_max)
    for total in (tc.total_differential, cs.const_total_matrix, cs.forms_total_matrix):
        assert [total(t)._elimination for t in range(t_max)] == [None] * t_max
        assert total(t_max)._elimination is not None
    # the ring builds the slots of its product degrees above the window in order,
    # and frees every interior differential up to the top slot built
    tc = build_twisted(fan)
    top = max(3, *(ta + tb for ta, _, tb, _ in ring_structure(tc, 3).constants))
    assert [tc.total_differential(t)._elimination for t in range(top)] == [None] * top
    assert tc.total_differential(top)._elimination is not None


@pytest.mark.parametrize("fan", [load_fan("zero2"), fan_from_data(rank=6, rays=[], max_cones=[[]])],
                         ids=["zero2", "zero6"])
@pytest.mark.parametrize("first, second", [(5, 3), (3, 5)])
def test_slots_do_not_depend_on_the_order_asked(fan, first, second):
    # slots cached by an earlier, longer or shorter, call are those a fresh complex builds
    tc = build_twisted(fan)
    lg_cohomology(tc, first)
    coh, fresh = lg_cohomology(tc, second), lg_cohomology(build_twisted(fan), second)
    assert coh.dims == fresh.dims
    for t in range(second + 1):
        for got, want in ((coh.slots[t].representatives, fresh.slots[t].representatives),
                          (coh.slots[t]._project, fresh.slots[t]._project)):
            assert (got.shape, got.entries) == (want.shape, want.entries)


def test_zero_fan_representatives_are_unit_columns():
    # every differential of the rank-10 zero fan is zero, so slot 5 is the whole
    # C(10, 5)-dimensional space and each representative one unit column
    tc = build_twisted(fan_from_data(rank=10, rays=[], max_cones=[[]]))
    reps = lg_cohomology(tc, 5).slots[5].representatives
    assert reps.shape == (math.comb(10, 5), math.comb(10, 5))
    assert reps.entries == {(i, i): 1 for i in range(math.comb(10, 5))}


def exact_numbers(obj) -> list:
    """Every number held by a matrix (and its cached elimination), slot or solver."""
    if isinstance(obj, RationalMatrix):
        out = list(obj.entries.values())
        if obj._elimination is not None:
            out += [v for row in obj._elimination.rows for v in row.values()]
        return out
    if isinstance(obj, LinearSolver):
        return [*obj._solution.entries.values(), *obj._null.entries.values()]
    return [*obj.representatives.entries.values(), *obj._project.entries.values()]


@pytest.mark.parametrize("name", FAN_NAMES)
def test_no_float_anywhere(name):
    # entries are int or Fraction in every elimination, slot, solver and ring constant
    fan = load_fan(name)
    t_max = default_t_max(fan)
    tc = build_twisted(fan)
    ring = ring_structure(tc, t_max)
    cs = CoverSimplex(fan)
    verify_exactness(cs, 2 * fan.rank + 4)
    ls = lsop_check(tc)  # its eliminations stay cached on the blocks
    quotient_ring = ring_structure(tc, t_max, ls)
    held = [*tc._blocks.values(), *tc._totals.values(), *tc._slots.values(), *ls.slots,
            *constant_total_cohomology(cs, t_max).slots.values(),
            *forms_total_cohomology(cs, t_max).slots.values(),
            *(v for v in cs._cache.values() if isinstance(v, (RationalMatrix, LinearSolver)))]
    numbers = [v for obj in held for v in exact_numbers(obj)]
    numbers += [v for r in (ring, quotient_ring) for coords in r.constants.values() for v in coords]
    assert numbers
    assert {type(v) for v in numbers} <= {int, Fraction}
