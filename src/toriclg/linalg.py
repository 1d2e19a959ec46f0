"""Exact rational linear algebra on sparse matrices.

A matrix entry is an ``int`` when it is integral and a
``fractions.Fraction`` otherwise, never a ``float``.  So the integer
matrices that the complexes of this package produce get integer
arithmetic, and elimination leaves the integers only at a pivot other
than 1 or -1.

``eliminate`` is the one exact elimination loop.  It computes the reduced
row echelon form (RREF) of a matrix on first use and caches it on the
matrix, which is treated as immutable; ``rank``, ``kernel_basis``,
``image_pivot_columns``, ``det`` and ``cohomology_at`` read it, and
``LinearSolver`` (so ``lift`` and ``inverse``) reads the RREF of [b | I].
A complex that caches its differentials therefore eliminates each
differential once, and the two cohomology slots on either side of a
differential share its elimination.  ``rank_mod_p`` is the one other
loop: its arithmetic is modulo a prime, and sharing the exact loop would
put a test of the field in its innermost step.

Results do not depend on the order in which rows are combined: the RREF
of a matrix is unique, and so are its pivot columns (the greedy choice
"scan columns left to right, keep those independent of the earlier
ones").  Ranks, kernel bases, lifts and cohomology representatives are
therefore reproducible across runs and platforms.

``cohomology_at`` needs no elimination beyond those of its two maps: its
dimension is nullity(d_out) - rank(d_in), and its representatives come
from one small RREF of the image written in kernel coordinates (see
``CohomologySlot``).  Most slots of a complex are zero, and those need no
exact elimination at all: once d_out @ d_in = 0 is checked, rank(d_out) +
rank(d_in) <= cols, and a rank modulo a prime never exceeds the rank over
Q, so cols - rank_p(d_out) - rank_p(d_in) = 0 certifies that the slot is
zero (``rank_mod_p``).  Any other outcome takes the exact path.

``solve_system`` is the one exact linear programming entry point: it
solves the homogeneous equalities first, runs Fourier-Motzkin elimination
(``solve_inequalities``) on the inequalities written in a basis of their
solution space, and maps the answer back.  The fan-condition check and
the semi-projectivity certificate search both call it.  Fourier-Motzkin
keeps every row as a primitive integer tuple; Fractions appear only in
its back-substitution.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction

Vector = tuple[int | Fraction, ...]

ZERO = Fraction(0)

# rank_mod_p's one prime.  A rank r drops mod p only when p divides every r x r
# minor; cohomology_at then takes the exact path, so the prime affects speed only.
PRIME = (1 << 61) - 1


class LinalgError(ValueError):
    pass


class NoSolutionError(LinalgError):
    """The right hand side is not in the image of the matrix."""


class CompositionError(LinalgError):
    """Two maps that should compose to zero do not."""


def _exact(v) -> int | Fraction:
    """v as an int when it is integral, else as a Fraction; a float is refused."""
    t = type(v)
    if t is int:
        return v
    if t is not Fraction:
        v = _fraction(v)
    return v.numerator if v.denominator == 1 else v


def _fraction(v) -> Fraction:
    """v as a Fraction; a float is refused, as in ``_exact``."""
    if isinstance(v, float):
        raise LinalgError(f"float entry {v!r}: entries must be int or Fraction")
    return Fraction(v)


def vector(values: Iterable) -> Vector:
    return tuple(_fraction(v) for v in values)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def add_vectors(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def scale_vector(c, v: Vector) -> Vector:
    c = _fraction(c)
    return tuple(c * _exact(a) for a in v)


def dot(u: Sequence, v: Sequence) -> Fraction:
    return Fraction(sum(_exact(a) * _exact(b) for a, b in zip(u, v, strict=True)))


def is_zero_vector(v: Sequence) -> bool:
    return all(a == 0 for a in v)


class RationalMatrix:
    """Sparse matrix over Q.  Instances are treated as immutable.

    ``entries`` maps ``(row, col)`` to a nonzero int or non-integral
    Fraction (see ``_exact``); explicit zeros are stripped on construction.
    ``eliminate`` caches the RREF here, and ``cohomology_at`` the rank
    modulo PRIME (-1 until it asks).  Two matrices are equal when their
    shapes and entries are.
    """

    __slots__ = ("rows", "cols", "entries", "_elimination", "_rank_p")

    def __init__(self, rows: int, cols: int, entries: Mapping):
        clean = {}
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise LinalgError(f"entry ({i},{j}) outside a {rows}x{cols} matrix")
            v = _exact(v)
            if v:
                clean[(i, j)] = v
        self.rows = rows
        self.cols = cols
        self.entries = clean
        self._elimination: Elimination | None = None
        self._rank_p: int | None = -1

    def __eq__(self, other):
        return NotImplemented if type(other) is not RationalMatrix else (
            (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise LinalgError("ragged rows")
        return cls(len(rows), ncols, {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)})

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int) -> "RationalMatrix":
        if any(len(col) != rows for col in columns):
            raise LinalgError("ragged columns")
        ent = {(i, j): v for j, col in enumerate(columns) for i, v in enumerate(col)}
        return cls(rows, len(columns), ent)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    # -- basic queries -------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not self.entries

    def row_dicts(self) -> list[dict]:
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def column(self, j: int) -> Vector:
        return tuple(self.entries.get((i, j), 0) for i in range(self.rows))

    def to_rows(self) -> list[list]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    # -- arithmetic ----------------------------------------------------

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()})

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.shape != other.shape:
            raise LinalgError("shape mismatch in +")
        ent = dict(self.entries)
        for key, v in other.entries.items():
            ent[key] = ent.get(key, 0) + v
        return RationalMatrix(self.rows, self.cols, ent)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "RationalMatrix":
        c = _exact(c)
        return RationalMatrix(self.rows, self.cols, {k: c * v for k, v in self.entries.items()})

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise LinalgError(f"shape mismatch in @: {self.shape} @ {other.shape}")
        by_row: dict[int, list[tuple[int, int | Fraction]]] = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        ent: dict[tuple[int, int], int | Fraction] = {}
        for (i, k), a in self.entries.items():
            for (j, b) in by_row.get(k, ()):
                key = (i, j)
                ent[key] = ent.get(key, 0) + a * b
        return RationalMatrix(self.rows, other.cols, ent)

    def mul_vec(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise LinalgError("vector length mismatch")
        out = [0] * self.rows
        for (i, j), a in self.entries.items():
            if v[j]:
                out[i] += a * _exact(v[j])
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RationalMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


# -- elimination core ---------------------------------------------------


class Elimination:
    """Reduced row echelon form of a matrix.

    ``rows[i]`` is the i-th nonzero RREF row as a sparse dict; it holds a
    1 at column ``pivots[i]`` and no other pivot column.  ``free`` lists
    the remaining columns in increasing order.  ``scale`` is the product
    of the pivots the loop divided by, negated once per row swap; for a
    square matrix of full rank it is the determinant.  Immutable by
    convention: the rows are shared and must not be mutated.
    """

    __slots__ = ("cols", "rows", "pivots", "free", "scale")

    def __init__(self, cols: int, rows: tuple[dict, ...], pivots: tuple[int, ...],
                 free: tuple[int, ...], scale: int | Fraction):
        self.cols = cols
        self.rows = rows
        self.pivots = pivots
        self.free = free
        self.scale = scale

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def nullity(self) -> int:
        return len(self.free)

    def annihilates(self, v: Sequence) -> bool:
        """True iff the matrix maps v to zero (the RREF rows span its row space)."""
        for row in self.rows:
            if sum(c * v[j] for j, c in row.items() if v[j]):
                return False
        return True

    def kernel_vector(self, f: int) -> Vector:
        """The kernel vector with a 1 at free column f and 0 at the other free columns."""
        x = [0] * self.cols
        x[f] = 1
        for row, c in zip(self.rows, self.pivots):
            v = row.get(f)
            if v:
                x[c] = -v
        return tuple(x)


def eliminate(a: RationalMatrix) -> Elimination:
    """The RREF of a, computed on the first call and cached on a.

    Columns are scanned left to right; each takes the first remaining row
    that is nonzero there as its pivot row.  A pivot of 1 or -1 keeps
    integer rows integral; any other pivot scales its row by an exact
    Fraction inverse, and the scaled entries that are integral go back to
    int.
    """
    if a._elimination is not None:
        return a._elimination
    rows = a.row_dicts()
    nrows = len(rows)
    pivots: list[int] = []
    scale = 1
    r = 0
    for c in range(a.cols):
        pr = None
        for i in range(r, nrows):
            if rows[i].get(c):
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            scale = -scale
        piv = rows[r][c]
        if piv == -1:
            rows[r] = {j: -v for j, v in rows[r].items()}
            scale = -scale
        elif piv != 1:
            inv = Fraction(1, piv)
            rows[r] = {j: _exact(inv * v) for j, v in rows[r].items()}
            scale *= piv
        pivot_row = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i].get(c)
            if not f:
                continue
            target = rows[i]
            for j, v in pivot_row.items():
                new = target.get(j, 0) - f * v
                if new:
                    target[j] = new
                else:
                    target.pop(j, None)
        pivots.append(c)
        r += 1
    pivot_set = set(pivots)
    free = tuple(c for c in range(a.cols) if c not in pivot_set)
    a._elimination = Elimination(a.cols, tuple(rows[:r]), tuple(pivots), free, scale)
    return a._elimination


def rank(a: RationalMatrix) -> int:
    return eliminate(a).rank


def rank_mod_p(a: RationalMatrix) -> int | None:
    """Rank of a modulo PRIME, or None when an entry is not an integer.

    It never exceeds the rank over Q (a minor that vanishes over Z
    vanishes mod p), which is all ``cohomology_at`` relies on.  Rows are
    reduced one by one against the pivot rows found so far, each pivot
    at the row's smallest column.
    """
    p = PRIME
    pivots: dict[int, dict] = {}
    for row in a.row_dicts():
        if any(type(v) is not int for v in row.values()):
            return None
        row = {j: v % p for j, v in row.items() if v % p}
        while row:
            c = min(row)
            pivot_row = pivots.get(c)
            if pivot_row is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {j: v * inv % p for j, v in row.items()}
                break
            f = row[c]
            for j, v in pivot_row.items():
                new = (row.get(j, 0) - f * v) % p
                if new:
                    row[j] = new
                else:
                    row.pop(j, None)
    return len(pivots)


def _rank_lower_bound(a: RationalMatrix) -> int | None:
    """The exact rank if a is already eliminated, else its rank mod p.

    A differential is d_out of one slot and d_in of the next, so the rank
    mod p is cached on the matrix: each matrix is reduced at most once.
    """
    if a._elimination is not None:
        return a._elimination.rank
    if a._rank_p == -1:
        a._rank_p = rank_mod_p(a)
    return a._rank_p


def _canonical_sign(v: Vector) -> Vector:
    for x in v:
        if x > 0:
            return v
        if x < 0:
            return tuple(-y for y in v)
    return v


def kernel_basis(a: RationalMatrix) -> list[Vector]:
    """Basis of the null space {x : a x = 0}, in free-column order.

    Each basis vector is normalised so its first nonzero entry is positive.
    """
    elim = eliminate(a)
    return [_canonical_sign(elim.kernel_vector(f)) for f in elim.free]


def lift(b: RationalMatrix, a: Sequence) -> Vector:
    """Deterministic solve of b x = a; free variables are set to zero.

    The solution is linear in a, and a = 0 yields x = 0.  Raises
    NoSolutionError when a is not in the image of b.
    """
    return LinearSolver(b).solve(a)


class LinearSolver:
    """Precomputed deterministic solver for repeated b x = v queries.

    Eliminates [b | I] once.  That matrix has full row rank, so every row
    of its RREF is a pivot row.  A row whose pivot lies in b gives that
    solution variable as its identity part applied to v (free variables
    are zero); a row whose pivot lies in I has a zero b part, so its
    identity part is a left null vector of b, which v must annihilate.
    """

    def __init__(self, b: RationalMatrix):
        self.rows_in = b.rows
        self.cols = b.cols
        ent = dict(b.entries)
        for i in range(b.rows):
            ent[(i, b.cols + i)] = 1
        elim = eliminate(RationalMatrix(b.rows, b.cols + b.rows, ent))
        self._rows = elim.rows
        self._pivots = elim.pivots

    def solve(self, v: Sequence) -> Vector:
        if len(v) != self.rows_in:
            raise LinalgError("vector length mismatch")
        base = self.cols
        x = [0] * base
        for row, c in zip(self._rows, self._pivots):
            total = 0
            for j, coeff in row.items():
                if j >= base:
                    val = v[j - base]
                    if val:
                        total += coeff * _exact(val)
            if c < base:
                x[c] = total
            elif total:
                raise NoSolutionError("vector not in the image")
        return tuple(x)


def image_pivot_columns(a: RationalMatrix) -> list[int]:
    return list(eliminate(a).pivots)


class CohomologySlot:
    """Kernel-mod-image data at one position of a complex.

    ``representatives`` span a complement of image(d_in) inside
    ker(d_out); ``reduce`` writes any kernel vector in that basis modulo
    the image.

    A slot that ``cohomology_at`` certified zero from modular ranks holds
    the matrix d_out itself in ``_d_out``, not an elimination: its
    ``reduce`` checks d_out v = 0 with one sparse product.

    A kernel vector is determined by its entries at the free columns of
    d_out (its kernel coordinates).  ``_echelon`` is the RREF of the
    image pivot columns of d_in in kernel coordinates, with the
    coordinate order reversed: its pivots are exactly the kernel
    coordinates j for which some image vector has its last nonzero
    kernel coordinate at j, so the canonical kernel vectors at the other
    coordinates (``_rep_coords``) are the ones the greedy left-to-right
    choice over [image | kernel basis] keeps.  Immutable by convention.
    """

    __slots__ = ("ambient", "dim", "representatives", "image_rank",
                 "_d_out", "_echelon", "_rep_coords", "_rep_signs")

    def __init__(self, ambient: int, dim: int, representatives: tuple[Vector, ...],
                 image_rank: int, d_out: Elimination | RationalMatrix,
                 echelon: tuple[tuple[int, dict], ...], rep_coords: tuple[int, ...],
                 rep_signs: tuple[int, ...]):
        self.ambient = ambient
        self.dim = dim
        self.representatives = representatives
        self.image_rank = image_rank
        self._d_out = d_out
        self._echelon = echelon          # (pivot, row) in reversed kernel coordinates
        self._rep_coords = rep_coords    # reversed kernel coordinate of each representative
        self._rep_signs = rep_signs      # canonical sign of each representative

    def reduce(self, v: Sequence) -> Vector:
        if len(v) != self.ambient:
            raise LinalgError("vector length mismatch")
        out = self._d_out
        if isinstance(out, RationalMatrix):
            if not is_zero_vector(out.mul_vec(v)):
                raise NoSolutionError("vector not in the kernel")
            return ()
        if not out.annihilates(v):
            raise NoSolutionError("vector not in the kernel")
        n = out.nullity
        coords = {n - 1 - j: _exact(v[f]) for j, f in enumerate(out.free) if v[f]}
        acc = {q: coords.get(q, 0) for q in self._rep_coords}
        for p, row in self._echelon:
            c = coords.get(p)
            if not c:
                continue
            for q, val in row.items():
                if q != p:
                    acc[q] -= c * val
        return tuple(acc[q] if s > 0 else -acc[q] for q, s in zip(self._rep_coords, self._rep_signs))


def cohomology_at(d_in: RationalMatrix, d_out: RationalMatrix) -> CohomologySlot:
    """Cohomology ker(d_out)/im(d_in) with deterministic representatives.

    Raises CompositionError unless d_out @ d_in = 0.  A slot that modular
    ranks certify zero eliminates neither map.  Otherwise it reads the
    cached eliminations of d_in and d_out; the only new elimination is
    the small (rank d_in) x (nullity d_out) one that picks
    representatives.
    """
    if d_in.rows != d_out.cols:
        raise LinalgError(f"incompatible maps: d_in lands in {d_in.rows}, d_out eats {d_out.cols}")
    if not (d_out @ d_in).is_zero():
        raise CompositionError("d_out . d_in != 0")
    r_out = _rank_lower_bound(d_out)
    r_in = _rank_lower_bound(d_in) if r_out is not None else None
    if r_in is not None and r_out + r_in == d_out.cols:
        return CohomologySlot(d_in.rows, 0, (), r_in, d_out, (), (), ())
    out = eliminate(d_out)
    image = eliminate(d_in)
    n = out.nullity
    # image pivot columns of d_in in reversed kernel coordinates
    coord = {f: n - 1 - j for j, f in enumerate(out.free)}
    row_of = {c: i for i, c in enumerate(image.pivots)}
    echelon = eliminate(RationalMatrix(image.rank, n, {
        (row_of[c], coord[i]): v for (i, c), v in d_in.entries.items() if c in row_of and i in coord}))
    if echelon.rank != image.rank:  # pragma: no cover - internal consistency
        raise LinalgError("rank bookkeeping failed in cohomology_at")
    pivot_coords = set(echelon.pivots)
    reps, rep_coords, signs = [], [], []
    for j, f in enumerate(out.free):
        if n - 1 - j in pivot_coords:
            continue
        vec = out.kernel_vector(f)
        rep = _canonical_sign(vec)
        reps.append(rep)
        rep_coords.append(n - 1 - j)
        signs.append(1 if rep is vec else -1)
    return CohomologySlot(d_in.rows, n - image.rank, tuple(reps), image.rank, out,
                          tuple(zip(echelon.pivots, echelon.rows)),
                          tuple(rep_coords), tuple(signs))


# -- misc utilities -------------------------------------------------------


def det(a: RationalMatrix) -> Fraction:
    """Determinant, as a Fraction: the elimination's scale at full rank, else 0."""
    if a.rows != a.cols:
        raise LinalgError("determinant of non-square matrix")
    elim = eliminate(a)
    return Fraction(elim.scale) if elim.rank == a.rows else ZERO


def inverse(a: RationalMatrix) -> RationalMatrix:
    if a.rows != a.cols:
        raise LinalgError("inverse of non-square matrix")
    solver = LinearSolver(a)
    try:
        cols = [solver.solve([int(i == j) for i in range(a.rows)]) for j in range(a.rows)]
    except NoSolutionError:
        raise LinalgError("matrix is singular") from None
    return RationalMatrix.from_columns(cols, rows=a.rows)


# -- exact linear programming --------------------------------------------


def primitive_vector(v: Sequence) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector, same direction.

    The zero vector stays zero.
    """
    denom = math.lcm(*(x.denominator for x in v))
    ints = [x.numerator * (denom // x.denominator) for x in v]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


def _normalise_rows(system: list[tuple[tuple[int, ...], int]]) -> list[tuple[tuple[int, ...], int]]:
    """Divide integer rows (c, r) by the gcd of their entries; drop tautologies and duplicates.

    Rows stay primitive integer tuples.  This keeps Fourier-Motzkin from
    drowning in redundant combinations.
    """
    seen = set()
    out = []
    for c, r in system:
        if not any(c):
            if r > 0:
                return [((0,) * len(c), 1)]  # single infeasible row
            continue
        g = math.gcd(*c, r)
        key = (tuple(x // g for x in c), r // g)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def solve_inequalities(ineqs: list[tuple[Vector, Fraction]], nvars: int) -> Vector | None:
    """Exact Fourier-Motzkin: find x with c . x >= r for every (c, r), or None.

    Each row is scaled to a primitive integer tuple (c, r) first, and
    elimination keeps it integral: a combination of two rows has integer
    multipliers, and ``_normalise_rows`` divides out the gcd.  Fractions
    appear only in back-substitution.  Variables are eliminated in index
    order; back-substitution picks the max lower bound (falling back to
    the min upper bound, then 0), so the result is deterministic.
    """
    system = []
    for c, r in ineqs:
        row = primitive_vector([_exact(x) for x in (*c, r)])
        system.append((row[:-1], row[-1]))
    stages: list[list[tuple[tuple[int, ...], int]]] = []
    for j in range(nvars):
        system = _normalise_rows(system)
        stages.append(system)
        pos = [row for row in system if row[0][j] > 0]
        neg = [row for row in system if row[0][j] < 0]
        new = [row for row in system if row[0][j] == 0]
        for (cp, rp) in pos:
            for (cn, rn) in neg:
                lam_p, lam_n = -cn[j], cp[j]
                c = tuple(lam_p * a + lam_n * b for a, b in zip(cp, cn))
                new.append((c, lam_p * rp + lam_n * rn))
        system = new
    for c, r in _normalise_rows(system):
        if not any(c) and r > 0:
            return None
    x = [ZERO] * nvars
    for j in range(nvars - 1, -1, -1):
        lower = None
        upper = None
        for c, r in stages[j]:
            cj = c[j]
            if cj == 0:
                continue
            rest = sum((c[t] * x[t] for t in range(j + 1, nvars) if c[t]), ZERO)
            bound = Fraction(r - rest, cj)
            if cj > 0:
                lower = bound if lower is None else max(lower, bound)
            else:
                upper = bound if upper is None else min(upper, bound)
        if lower is not None and upper is not None and lower > upper:
            return None  # pragma: no cover - elimination already certified feasibility
        x[j] = lower if lower is not None else (upper if upper is not None else ZERO)
    return tuple(x)


def solve_system(eqs: Sequence[Sequence], ineqs: Sequence[tuple[Sequence, int | Fraction]],
                 nvars: int) -> Vector | None:
    """Exact LP: x with e . x = 0 for every e in eqs and c . x >= r for every (c, r), or None.

    The equalities are solved first (``kernel_basis``); Fourier-Motzkin then
    runs on the inequalities written in that basis of their solution space,
    which keeps its row count tame, and the answer is mapped back.
    """
    basis = kernel_basis(RationalMatrix.from_rows(eqs) if eqs else RationalMatrix.zeros(0, nvars))
    reduced = []
    for c, r in ineqs:
        nonzero = [(t, x) for t, x in enumerate(c) if x]  # inequality rows are sparse
        reduced.append((tuple(sum(x * b[t] for t, x in nonzero) for b in basis), r))
    y = solve_inequalities(reduced, len(basis))
    if y is None:
        return None
    return tuple(sum((c * b[t] for c, b in zip(y, basis) if c), ZERO) for t in range(nvars))


def exterior_power(a: RationalMatrix, k: int) -> RationalMatrix:
    """k-th exterior power; rows/cols indexed by k-subsets in lex order."""
    if k < 0:
        raise LinalgError("negative exterior power")
    row_sets = list(itertools.combinations(range(a.rows), k))
    col_sets = list(itertools.combinations(range(a.cols), k))
    dense = a.to_rows()
    ent = {}
    for ri, rset in enumerate(row_sets):
        for ci, cset in enumerate(col_sets):
            d = det(RationalMatrix.from_rows([[dense[i][j] for j in cset] for i in rset]))
            if d:
                ent[(ri, ci)] = d
    return RationalMatrix(len(row_sets), len(col_sets), ent)


def matrix_from_action(n_rows: int, n_cols: int, action: Callable[[int], Mapping[int, Fraction]]) -> RationalMatrix:
    """Matrix of a linear map given by images of basis vectors.

    ``action(j)`` returns the image of source basis vector j as a sparse
    mapping {row index: coefficient}.
    """
    ent = {}
    for j in range(n_cols):
        for i, v in action(j).items():
            ent[(i, j)] = v
    return RationalMatrix(n_rows, n_cols, ent)


def block_matrix(row_sizes: Sequence[int], col_sizes: Sequence[int],
                 blocks: Mapping[tuple[int, int], RationalMatrix]) -> RationalMatrix:
    """Assemble a sparse block matrix; missing blocks are zero."""
    row_off = [0]
    for s in row_sizes:
        row_off.append(row_off[-1] + s)
    col_off = [0]
    for s in col_sizes:
        col_off.append(col_off[-1] + s)
    ent = {}
    for (bi, bj), blk in blocks.items():
        if blk.shape != (row_sizes[bi], col_sizes[bj]):
            raise LinalgError(f"block ({bi},{bj}) has shape {blk.shape}, expected "
                              f"({row_sizes[bi]},{col_sizes[bj]})")
        r0, c0 = row_off[bi], col_off[bj]
        for (i, j), v in blk.entries.items():
            ent[(r0 + i, c0 + j)] = v
    return RationalMatrix(row_off[-1], col_off[-1], ent)
