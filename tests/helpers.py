"""Shared helpers for the test suite: seeded random generators, determinants
and minors by the Leibniz formula (the oracle of the constant wedges), the
twisted differential applied element by element (the oracle of the assembled
Koszul blocks), the two sides of the total Leibniz rule of the Cech cup, the
ring axioms and Hilbert series that only tests check,
and fans larger than those in ``fans/``."""

from fractions import Fraction
import itertools
import json
import math
import random

from cech_helpers import Cochain, cochain_from_vector, local_basis, to_total
from toriclg import Monomial, RationalMatrix, SRPolynomial, cup, kernel_basis, linalg, sr_basis
from toriclg.cech import TAG_FORMS, CoverSimplex
from toriclg.fan import FanError, fan_from_data


def apply(a: RationalMatrix, v) -> tuple:
    """a times the vector v, as a one-column product."""
    return (a @ RationalMatrix.from_columns([v], rows=len(v))).column(0)


def random_fraction(rng: random.Random, lo=-4, hi=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2)))


def sr_variable(fan, i: int) -> SRPolynomial:
    return SRPolynomial.build(fan, {Monomial.variable(i): 1})


def sr_one(fan) -> SRPolynomial:
    return SRPolynomial.build(fan, {Monomial(()): 1})


def random_monomial(rng: random.Random, fan, max_z=3) -> Monomial:
    cone = rng.choice(fan.all_cones)
    exps = {}
    for i in cone.ray_indices:
        e = rng.randint(0, max_z)
        if e:
            exps[i] = e
    return Monomial.from_map(exps)


def random_polynomial(rng: random.Random, fan, terms=4, max_z=3) -> SRPolynomial:
    acc = {}
    for _ in range(rng.randint(1, terms)):
        mono = random_monomial(rng, fan, max_z)
        acc[mono] = acc.get(mono, Fraction(0)) + random_fraction(rng)
    return SRPolynomial.build(fan, acc)


def random_cochain(rng: random.Random, cs: CoverSimplex, tag, p, k, m) -> Cochain:
    comps = {}
    for tau in cs.simplices(p):
        size = len(local_basis(cs, tag, tau, k, m))
        comps[tau] = tuple(random_fraction(rng) for _ in range(size))
    return Cochain(tag, p, k, m, comps)


def random_closed_cochain(rng: random.Random, cs: CoverSimplex, tag, p, k, m) -> Cochain:
    """Random element of the kernel of the horizontal differential."""
    mat = cs.delta_matrix(tag, p, k, m)
    basis = kernel_basis(mat)
    n = mat.cols
    vec = [Fraction(0)] * n
    for b in basis:
        c = random_fraction(rng)
        if c:
            vec = [x + c * y for x, y in zip(vec, b)]
    return cochain_from_vector(cs, tag, p, k, m, vec)


def random_unimodular(rng: random.Random, n: int, shears=6):
    """Product of random integer shears and permutations; det = +-1."""
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(shears):
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if a == b:
            continue
        c = rng.randint(-2, 2)
        for j in range(n):
            mat[a][j] += c * mat[b][j]
        if rng.random() < 0.3:
            mat[a], mat[b] = mat[b], mat[a]
    return tuple(tuple(row) for row in mat)


def scrambled_data(rank: int, rays, cones, seed: int) -> tuple:
    """Fan data in coordinates changed by a seeded unimodular matrix, its rays
    listed in a seeded order: (rank, rays, cones) for ``fan_from_data``."""
    rng = random.Random(seed)
    u = random_unimodular(rng, rank)
    order = rng.sample(range(len(rays)), len(rays))  # new ray p + 1 is old ray order[p] + 1
    new_index = {old + 1: p + 1 for p, old in enumerate(order)}
    return (rank, [[sum(a * b for a, b in zip(row, rays[old])) for row in u] for old in order],
            [[new_index[i] for i in c] for c in cones])


def dense_rref(rows, ncols: int) -> tuple[list[dict], list[int], list[int]]:
    """Gauss-Jordan elimination over Fractions on a dense copy of the rows,
    swapping rows physically: the reference of ``linalg.eliminate``.

    Returns the nonzero RREF rows as sparse dicts, the pivot columns and the
    free columns.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    rref = [{j: x for j, x in enumerate(row) if x} for row in m[:len(pivots)]]
    return rref, pivots, [c for c in range(ncols) if c not in pivots]


# -- determinants and minors by the Leibniz formula ---------------------------


def leibniz_det(rows):
    """Determinant of a square matrix (rows of numbers) as a sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(len(perm)))
    return total


def minors_matrix(rows, k: int) -> RationalMatrix:
    """The k-th exterior power of a matrix given by its rows: entry (R, C) is the
    minor on the k-subsets R of rows and C of columns, both in lex order."""
    ncols = len(rows[0]) if rows else 0
    row_sets = list(itertools.combinations(range(len(rows)), k))
    col_sets = list(itertools.combinations(range(ncols), k))
    return RationalMatrix(len(row_sets), len(col_sets), {
        (a, b): leibniz_det([[rows[i][j] for j in c] for i in r])
        for a, r in enumerate(row_sets) for b, c in enumerate(col_sets)})


# -- the total Leibniz rule of the cup product ----------------------------------


def random_block_columns(rng: random.Random, cs: CoverSimplex, tag, p, k, m, cols=2) -> RationalMatrix:
    """Random total-complex columns of degree p + k + m, zero outside the slot (p, k, m)."""
    return to_total(cs, [random_cochain(rng, cs, tag, p, k, m) for _ in range(cols)])


def random_total_columns(rng: random.Random, cs: CoverSimplex, tag, t, cols=2) -> RationalMatrix:
    """Random total-complex columns of degree t, about half their entries nonzero."""
    rows = sum(cs.slot_layout(tag, *slot)[0] for slot in cs.total_blocks(tag, t))
    return RationalMatrix(rows, cols, {(i, j): random_fraction(rng) for i in range(rows)
                                       for j in range(cols) if rng.random() < 0.5})


def total_leibniz_sides(cs: CoverSimplex, tag, t1, x, t2, y):
    """D(x cup y) and Dx cup y + (-1)^t1 x cup Dy, for the total differential D of tag."""
    d = cs.forms_total_matrix if tag == TAG_FORMS else cs.const_total_matrix
    left = d(t1 + t2) @ cup(cs, tag, t1, x, t2, y)
    right = (cup(cs, tag, t1 + 1, d(t1) @ x, t2, y)
             + cup(cs, tag, t1, x, t2 + 1, d(t2) @ y).scale((-1) ** t1))
    return left, right


# -- the twisted differential, element by element ---------------------------
# Independent of the index maps behind ``twisted.koszul_block``: every term is
# a monomial product and a face test.


def _contraction_terms(fan, forms, mono, subset):
    """Terms ((monomial, wedge), coefficient) of sum_i forms[i] d/dx_i on mono * u_subset.

    The odd derivation d/dx_i removes i from the sorted wedge with the sign
    (-1)^(position of i).
    """
    for pos, i in enumerate(subset):
        rest = subset[:pos] + subset[pos + 1:]
        for fmono, fcoef in forms[i - 1].terms:
            prod = fmono.times(mono)
            if fan.is_face(prod.support):
                yield (prod, rest), (-fcoef if pos % 2 else fcoef)


def lg_differential(tc, x: dict, forms=None) -> dict:
    """The twisted differential applied to one element, term by term.

    ``forms`` replaces the complex's coefficient forms (for restricted forms).
    """
    forms = tc.linear_forms if forms is None else forms
    out: dict = {}
    for (mono, subset), coeff in x.items():
        for key, term in _contraction_terms(tc.fan, forms, mono, subset):
            out[key] = out.get(key, Fraction(0)) + coeff * term
    return {k: v for k, v in out.items() if v != 0}


def lg_degree(x: dict) -> int | None:
    degrees = {2 * sum(e for _, e in mono.exps) + len(s) for (mono, s) in x}
    if not degrees:
        return None
    if len(degrees) > 1:
        raise FanError("element is not homogeneous")
    return degrees.pop()


def verify_square_zero(tc, t_max: int) -> bool:
    for t in range(t_max + 1):
        if not (tc.total_differential(t + 1) @ tc.total_differential(t)).is_zero():
            return False
    return True


# -- ring axioms and Hilbert series ---------------------------------------------


def check_axioms(ring) -> list[str]:
    """Unit, graded commutativity and associativity of a ``CohomologyRing``
    inside its window."""
    problems = []
    if ring.dims and ring.dims[0] == 1:
        unit = (0, 0)
        for lbl in ring.basis:
            got = ring.constants[unit + lbl]
            want = tuple(Fraction(1) if i == lbl[1] else Fraction(0)
                         for i in range(ring.dims[lbl[0]]))
            if got != want:
                problems.append(f"unit fails on {lbl}")
    for a in ring.basis:
        for b in ring.basis:
            if a[0] + b[0] > ring.t_max:
                continue
            sign = -1 if (a[0] % 2) and (b[0] % 2) else 1
            lhs = ring.constants[a + b]
            rhs = linalg.scale_vector(sign, ring.constants[b + a])
            if lhs != rhs:
                problems.append(f"graded commutativity fails on {a}, {b}")
    for a in ring.basis:
        for b in ring.basis:
            for c in ring.basis:
                td = a[0] + b[0] + c[0]
                if a[0] + b[0] > ring.t_max or b[0] + c[0] > ring.t_max or td > ring.t_max:
                    continue
                zero = (Fraction(0),) * ring.dims[td]
                left = zero
                for i, coeff in enumerate(ring.constants[a + b]):
                    if coeff:
                        left = linalg.add_vectors(
                            left, linalg.scale_vector(coeff, ring.constants[(a[0] + b[0], i) + c]))
                right = zero
                for i, coeff in enumerate(ring.constants[b + c]):
                    if coeff:
                        right = linalg.add_vectors(
                            right, linalg.scale_vector(coeff, ring.constants[a + (b[0] + c[0], i)]))
                if left != right:
                    problems.append(f"associativity fails on {a}, {b}, {c}")
    return problems


def hilbert_series(fan, max_degree: int) -> tuple[int, ...]:
    """Dimensions of the even-degree slices 0, 2, ..., max_degree."""
    if max_degree % 2:
        raise FanError("max_degree must be even")
    return tuple(len(sr_basis(fan, m)) for m in range(0, max_degree + 1, 2))


# -- fans given inline as (rank, rays, max_cones), most above the sizes in fans/ --


def surface_data(k: int) -> tuple:
    """A complete smooth surface with k >= 3 rays, by star subdivisions of P^2.

    Each step subdivides the first 2-cone (counter-clockwise) whose new ray
    has the smallest entries, which keeps the coordinates small.
    """
    ring = [(1, 0), (0, 1), (-1, -1)]
    while len(ring) < k:
        sums = [tuple(a + b for a, b in zip(ring[i], ring[(i + 1) % len(ring)]))
                for i in range(len(ring))]
        i = min(range(len(ring)), key=lambda j: (max(map(abs, sums[j])), j))
        ring.insert(i + 1, sums[i])
    return 2, [list(r) for r in ring], [[i + 1, (i + 1) % k + 1] for i in range(k)]


# P^3, an 18-ray surface (FM rows with coefficients other than +-1), P^3 blown
# up at the fixed point of cone {1,2,3}, C^2 x P^2, (P^1)^3, a 7-cone surface,
# and two fans whose face rings are not Cohen-Macaulay (so their coefficient
# forms are no regular sequence): two opposite quadrants and two opposite octants
INLINE_FANS = {
    "P3": (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
           [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]),
    "S18": surface_data(18),
    "Bl_pt P3": (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, 1]],
                 [[1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 2, 5], [1, 3, 5], [2, 3, 5]]),
    "C2xP2": (4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, -1, -1]],
              [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 4, 5]]),
    "P1^3": (3, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
             [[a, b, c] for a in (1, 2) for b in (3, 4) for c in (5, 6)]),
    "S7": surface_data(7),
    "2 quadrants": (2, [[1, 0], [0, 1], [-1, 0], [0, -1]], [[1, 2], [3, 4]]),
    "2 octants": (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
                  [[1, 2, 3], [4, 5, 6]]),
}


def inline_fan(name: str):
    return fan_from_data(*INLINE_FANS[name])


def inline_fan_file(tmp_path, name: str) -> str:
    """Write one of INLINE_FANS as a fan file; return its path."""
    rank, rays, cones = INLINE_FANS[name]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"rank": rank, "rays": rays, "max_cones": cones}), encoding="utf-8")
    return str(path)
