"""Exact rational linear algebra on sparse matrices.

A matrix entry is an ``int`` when it is integral and a
``fractions.Fraction`` otherwise, never a ``float``.  So the integer
matrices that the complexes of this package produce get integer
arithmetic, and elimination leaves the integers only at a pivot other
than 1 or -1.  An entry is validated once, when it first enters a
``RationalMatrix``; copies of entries that already sit in one (a block
placed into a larger matrix after a shape check) are not validated again.

``eliminate`` is the one elimination loop.  It computes the reduced row
echelon form (RREF) of a matrix on first use and caches it on the
matrix, which is treated as immutable; ``rank``, ``kernel_basis``,
``image_pivot_columns`` and ``cohomology_at`` read it, and
``LinearSolver`` (so ``lift`` and ``inverse``) reads the RREF of [b | I].
A complex that caches its differentials therefore eliminates each
differential once, and the two cohomology slots on either side of a
differential share its elimination.  The loop keeps an index from each
column to the rows that are nonzero there, so a pivot touches only the
rows that hold its column (Dumas-Villard, "Computing the rank of large
sparse matrices over finite fields", 2002).  Rows never move: the pivot
rows are tracked in pivot order.

Results do not depend on the order in which rows are combined: the RREF
of a matrix is unique, and so are its pivot columns (the greedy choice
"scan columns left to right, keep those independent of the earlier
ones").  Ranks, kernel bases, lifts and cohomology representatives are
therefore reproducible across runs and platforms.

A vector kept between stages is a column of a sparse ``RationalMatrix``,
never a dense tuple, and a batch of vectors is one matrix.
``LinearSolver.solve`` answers a batch with two sparse products, one by
the left null rows of b (a check) and one by the solution rows.

``cohomology_at`` certifies every slot exactly, zero or not, from the
cached eliminations of its two maps: its dimension is nullity(d_out) -
rank(d_in), and the representatives of a nonzero slot, the columns of
one sparse matrix, come from the RREF rows of d_out and one small RREF
of the image written in kernel coordinates (see ``CohomologySlot``).  A
zero slot needs nothing beyond the two maps' eliminations, which its
neighbours share.  A slot reduces a batch of vectors with two sparse
products: one by d_out checks that they are cocycles, and one by a
projection read off that small RREF gives their classes.

``solve_system`` is the one exact linear programming entry point.  Its
rows are sparse maps {variable: coefficient} that hold only nonzeros: the
equalities go straight into the ``RationalMatrix`` whose ``kernel_basis``
solves them, Fourier-Motzkin elimination (``solve_inequalities``) runs on
the inequalities written in that basis from their nonzeros, and the answer
is mapped back; ``first_violated_row`` tests a vector against the same
rows (``row_value``).  The fan condition (``fan``: a covector for each pair
of cones its dual frames leave open) solves its rows, and the certificates
(``semiproj``: the values of phi at the rays, one row per interior wall, no
equalities beyond n pins) read theirs through both, built once per fan.
Fourier-Motzkin keeps every row as a primitive integer tuple; Fractions
appear only in its back-substitution.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction

Vector = tuple[int | Fraction, ...]

ZERO = Fraction(0)


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
        if isinstance(v, float):
            raise LinalgError(f"float entry {v!r}: entries must be int or Fraction")
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def add_vectors(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def scale_vector(c, v: Vector) -> Vector:
    c = Fraction(_exact(c))
    return tuple(c * _exact(a) for a in v)


def dot(u: Sequence, v: Sequence) -> Fraction:
    return Fraction(sum(_exact(a) * _exact(b) for a, b in zip(u, v, strict=True)))


class RationalMatrix:
    """Sparse matrix over Q.  Instances are treated as immutable.

    ``entries`` maps ``(row, col)`` to a nonzero int or non-integral
    Fraction (see ``_exact``).  The constructor validates every entry in
    bulk: it refuses a float, normalises to int or Fraction, strips zeros
    and refuses any key outside the shape, a zero entry's included.  The
    internal ``_trusted`` adopts entries copied from other matrices
    without validating them again.  ``eliminate`` caches the RREF here.
    Two matrices are equal when their shapes and entries are.
    """

    __slots__ = ("rows", "cols", "entries", "_elimination")

    def __init__(self, rows: int, cols: int, entries: Mapping):
        clean = {}
        if entries:
            rs, cs = zip(*entries)
            if min(rs) < 0 or max(rs) >= rows or min(cs) < 0 or max(cs) >= cols:
                i, j = next(k for k in entries if not (0 <= k[0] < rows and 0 <= k[1] < cols))
                raise LinalgError(f"entry ({i},{j}) outside a {rows}x{cols} matrix")
            clean = dict(entries) if set(map(type, entries.values())) == {int} else {
                key: _exact(v) for key, v in entries.items()}
            if 0 in clean.values():
                clean = {key: v for key, v in clean.items() if v}
        self.rows = rows
        self.cols = cols
        self.entries = clean
        self._elimination: Elimination | None = None

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: dict) -> "RationalMatrix":
        """A matrix that adopts ``entries`` unchecked: each value is a copy of
        an entry of a matrix, and the caller's shape checks keep each key in range."""
        a = cls.__new__(cls)
        a.rows, a.cols, a.entries, a._elimination = rows, cols, entries, None
        return a

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

    # -- basic queries -------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not self.entries

    def column(self, j: int) -> Vector:
        return tuple(self.entries.get((i, j), 0) for i in range(self.rows))

    def to_rows(self) -> list[list]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    # -- arithmetic ----------------------------------------------------

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._trusted(self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()})

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
        return RationalMatrix(self.rows, other.cols, {key: v for key, v in ent.items() if v})

    def __repr__(self) -> str:  # pragma: no cover
        return f"RationalMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


# -- elimination core ---------------------------------------------------


class Elimination:
    """Reduced row echelon form of a matrix.

    ``rows[i]`` is the i-th nonzero RREF row as a sparse dict; it holds a
    1 at column ``pivots[i]`` and no other pivot column.  ``free`` lists
    the remaining columns in increasing order.  Immutable by convention:
    the rows are shared and must not be mutated.
    """

    __slots__ = ("cols", "rows", "pivots", "free")

    def __init__(self, cols: int, rows: tuple[dict, ...], pivots: tuple[int, ...],
                 free: tuple[int, ...]):
        self.cols = cols
        self.rows = rows
        self.pivots = pivots
        self.free = free

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def nullity(self) -> int:
        return len(self.free)

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

    Columns are scanned left to right.  An index from each column to the
    rows that are nonzero there, kept up to date as fill-in creates and
    cancels entries, gives the rows each step touches: the pivot row is
    the shortest row not yet used as a pivot that holds the column (the
    lowest on a tie), and only the other holders are cleared.  Rows never
    move; the pivot rows are listed in pivot order.  A pivot of 1 or -1
    keeps integer rows integral; any other pivot scales its row by an
    exact Fraction inverse, and the row's integral entries go back to int.
    """
    if a._elimination is not None:
        return a._elimination
    if not a.entries:
        a._elimination = Elimination(a.cols, (), (), tuple(range(a.cols)))
        return a._elimination
    rows = [{} for _ in range(a.rows)]
    holders = defaultdict(set)  # fill-in never reaches a column that starts empty
    for (i, j), v in a.entries.items():
        rows[i][j] = v
        holders[j].add(i)
    order, pivots, used = [], [], set()  # pivot rows and columns, in pivot order
    for c in sorted(holders):
        col = holders[c]
        unused = col - used
        if not unused:
            continue
        # the shortest unused holder makes the least fill-in; any pivot row gives the same RREF
        pr = min(unused, key=lambda i: (len(rows[i]), i)) if len(unused) > 1 else unused.pop()
        order.append(pr)
        pivots.append(c)
        used.add(pr)
        piv = rows[pr][c]
        if piv != 1:
            inv = -1 if piv == -1 else Fraction(1, piv)
            rows[pr] = {j: _exact(inv * v) for j, v in rows[pr].items()}
        if len(col) == 1:
            continue
        items = [(j, v) for j, v in rows[pr].items() if j != c]
        for i in col:
            if i != pr:
                target = rows[i]
                f = target.pop(c)
                for j, v in items:
                    new = target.get(j, 0) - f * v
                    if new:
                        target[j] = new
                        holders[j].add(i)
                    else:
                        del target[j]
                        holders[j].discard(i)
        holders[c] = {pr}
    free = tuple(sorted(set(range(a.cols)).difference(pivots)))
    a._elimination = Elimination(a.cols, tuple(map(rows.__getitem__, order)), tuple(pivots), free)
    return a._elimination


def drop_elimination(a: RationalMatrix) -> None:
    """Free the RREF cached on a; a later ``eliminate(a)`` computes it again.

    A complex calls this on a differential once the cohomology slots on
    both sides of it are built, since no slot reads the RREF after that.
    """
    a._elimination = None


def rank(a: RationalMatrix) -> int:
    return eliminate(a).rank


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
    return LinearSolver(b).solve(RationalMatrix.from_columns([a], rows=b.rows)).column(0)


class LinearSolver:
    """Precomputed deterministic solver for b x = v, a batch of columns at a time.

    Eliminates [b | I] once.  That matrix has full row rank, so every row
    of its RREF is a pivot row.  A row whose pivot lies in b gives that
    solution variable as its identity part applied to v (free variables
    are zero); a row whose pivot lies in I has a zero b part, so its
    identity part is a left null vector of b, which v must annihilate.
    The identity parts form two sparse matrices, ``_solution``
    (b.cols x b.rows) and ``_null`` (left null vectors x b.rows), so a
    batch is one product by each.
    """

    def __init__(self, b: RationalMatrix):
        ent = dict(b.entries)
        for i in range(b.rows):
            ent[(i, b.cols + i)] = 1
        elim = eliminate(RationalMatrix._trusted(b.rows, b.cols + b.rows, ent))
        solution, null = {}, []
        for row, c in zip(elim.rows, elim.pivots):
            part = [(j - b.cols, v) for j, v in row.items() if j >= b.cols]
            if c < b.cols:
                solution.update(((c, j), v) for j, v in part)
            else:
                null.append(part)
        self._solution = RationalMatrix._trusted(b.cols, b.rows, solution)
        self._null = RationalMatrix._trusted(len(null), b.rows, {
            (i, j): v for i, part in enumerate(null) for j, v in part})

    def solve(self, columns: RationalMatrix) -> RationalMatrix:
        """The solution of each column of ``columns``; the batch is refused if any is
        outside the image of b."""
        if not (self._null @ columns).is_zero():
            raise NoSolutionError("vector not in the image")
        return self._solution @ columns


def image_pivot_columns(a: RationalMatrix) -> list[int]:
    return list(eliminate(a).pivots)


class CohomologySlot:
    """Kernel-mod-image data at one position of a complex.

    ``representatives`` (ambient x dim) holds in column r a kernel vector
    of d_out, and the columns span a complement of image(d_in) inside
    ker(d_out).  ``reduce`` writes a batch of kernel vectors in that basis
    modulo the image: one sparse product by d_out checks that every
    column is a cocycle (the batch is refused otherwise, in a zero slot
    too), and one by ``_project`` gives the dim x n matrix of classes.

    A kernel vector is determined by its entries at the free columns of
    d_out (its kernel coordinates).  ``cohomology_at`` takes the RREF of
    the image pivot columns of d_in in kernel coordinates, with the
    coordinate order reversed: its pivots are exactly the kernel
    coordinates j for which some image vector has its last nonzero
    kernel coordinate at j, so the canonical kernel vectors at the other
    coordinates are the ones the greedy left-to-right choice over
    [image | kernel basis] keeps.  Representative r is the canonical
    kernel vector at its free column f, read off the RREF rows of d_out
    that hold f, and signed so that its first nonzero entry is positive.
    ``_project`` (dim x ambient) subtracts from a kernel vector the image
    vectors that clear its pivot coordinates and reads the rest: row r
    holds the sign of representative r at f, and minus that sign times
    the RREF row entry at the free column of each pivot.  The slot keeps
    d_out, which the complex caches, and no elimination.  Immutable by
    convention.
    """

    __slots__ = ("dim", "representatives", "_d_out", "_project")

    def __init__(self, representatives: RationalMatrix, d_out: RationalMatrix,
                 project: RationalMatrix):
        self.dim = project.rows
        self.representatives = representatives
        self._d_out = d_out
        self._project = project

    def reduce(self, columns: RationalMatrix) -> RationalMatrix:
        """Column j of the result is the class of column j of ``columns`` in the
        basis of representatives."""
        if not (self._d_out @ columns).is_zero():
            raise NoSolutionError("vector not in the kernel")
        return self._project @ columns


def cohomology_at(d_in: RationalMatrix, d_out: RationalMatrix) -> CohomologySlot:
    """Cohomology ker(d_out)/im(d_in) with deterministic representatives.

    Raises CompositionError unless d_out @ d_in = 0.  It reads the cached
    eliminations of d_in and d_out, so the slot is certified exactly: it
    is zero when nullity(d_out) = rank(d_in).  The only new elimination
    is, for a nonzero slot, the small (rank d_in) x (nullity d_out) one
    that picks representatives.
    """
    if d_in.rows != d_out.cols:
        raise LinalgError(f"incompatible maps: d_in lands in {d_in.rows}, d_out eats {d_out.cols}")
    if not (d_out @ d_in).is_zero():
        raise CompositionError("d_out . d_in != 0")
    out = eliminate(d_out)
    image = eliminate(d_in)
    n = out.nullity
    if n == image.rank:
        return CohomologySlot(RationalMatrix.zeros(d_out.cols, 0), d_out,
                              RationalMatrix.zeros(0, d_out.cols))
    # image pivot columns of d_in in reversed kernel coordinates (q is free column out.free[n - 1 - q])
    coord = {f: n - 1 - j for j, f in enumerate(out.free)}
    row_of = {c: i for i, c in enumerate(image.pivots)}
    echelon = eliminate(RationalMatrix._trusted(image.rank, n, {
        (row_of[c], coord[i]): v for (i, c), v in d_in.entries.items() if c in row_of and i in coord}))
    if echelon.rank != image.rank:  # pragma: no cover - internal consistency
        raise LinalgError("rank bookkeeping failed in cohomology_at")
    pivot_coords = set(echelon.pivots)
    rep_of = {f: r for r, f in enumerate(f for f in out.free if coord[f] not in pivot_coords)}
    # the RREF rows come in increasing pivot order, so the first row that holds f
    # gives the first nonzero entry of representative rep_of[f], and its sign
    reps, sign = {}, {}
    for row, c in zip(out.rows, out.pivots):
        for f, v in row.items():
            if f in rep_of:
                r = rep_of[f]
                reps[(c, r)] = -sign.setdefault(r, -1 if v > 0 else 1) * v
    project = {}
    for f, r in rep_of.items():
        reps[(f, r)] = project[(r, f)] = sign.get(r, 1)
    for p, row in zip(echelon.pivots, echelon.rows):
        f = out.free[n - 1 - p]
        for q, v in row.items():
            r = rep_of.get(out.free[n - 1 - q])
            if r is not None:
                project[(r, f)] = -sign.get(r, 1) * v
    return CohomologySlot(RationalMatrix._trusted(d_out.cols, len(rep_of), reps), d_out,
                          RationalMatrix._trusted(len(rep_of), d_out.cols, project))


# -- misc utilities -------------------------------------------------------


def inverse(a: RationalMatrix) -> RationalMatrix:
    if a.rows != a.cols:
        raise LinalgError("inverse of non-square matrix")
    identity = RationalMatrix._trusted(a.rows, a.rows, {(i, i): 1 for i in range(a.rows)})
    try:
        return LinearSolver(a).solve(identity)
    except NoSolutionError:
        raise LinalgError("matrix is singular") from None


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


def solve_system(eqs: Sequence[Mapping], ineqs: Sequence[tuple[Mapping, int | Fraction]],
                 nvars: int) -> Vector | None:
    """Exact LP: x with e . x = 0 for every e in eqs and c . x >= r for every (c, r), or None.

    A row is a map {variable in 0..nvars-1: nonzero coefficient}.  Fourier-Motzkin
    runs in a basis of the equalities' solutions, which keeps its row count tame.
    """
    if any(row and (min(row) < 0 or max(row) >= nvars) for row in [*eqs, *(c for c, _ in ineqs)]):
        raise LinalgError(f"a row names a variable outside 0..{nvars - 1}")
    basis = kernel_basis(RationalMatrix(len(eqs), nvars, {
        (i, t): x for i, e in enumerate(eqs) for t, x in e.items()}))
    reduced = [(tuple(sum(x * b[t] for t, x in c.items()) for b in basis), r) for c, r in ineqs]
    y = solve_inequalities(reduced, len(basis))
    return None if y is None else tuple(sum((c * b[t] for c, b in zip(y, basis) if c), ZERO) for t in range(nvars))


def row_value(row: Mapping, x: Sequence) -> int | Fraction:
    """The pairing of a sparse ``solve_system`` row with x; a row that reaches outside x is refused."""
    if row and (min(row) < 0 or max(row) >= len(x)):
        raise LinalgError(f"a row names a variable outside 0..{len(x) - 1}")
    return sum(a * x[t] for t, a in row.items())


def first_violated_row(eqs: Sequence[Mapping], ineqs: Sequence[tuple], x: Sequence) -> int | None:
    """The position of the first row of a ``solve_system`` system that x violates,
    tested exactly (the equalities e . x = 0 first, then c . x >= r), or None."""
    for k, e in enumerate(eqs):
        if row_value(e, x):
            return k
    for k, (c, r) in enumerate(ineqs, len(eqs)):
        if row_value(c, x) < r:
            return k
    return None


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
    """Assemble a sparse block matrix; missing blocks are zero.

    The one writer of the total differentials (``twisted.total_matrix``)
    and of the block-diagonal forms deltas they place (``cech``).  Each
    block must have the shape of its row and column sizes; its entries
    are adopted as they are, without validating them again.
    """
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
    return RationalMatrix._trusted(row_off[-1], col_off[-1], ent)
