"""Twisted exterior-algebra complex over the Stanley-Reisner ring.

The state space is the exterior algebra on n odd generators with
polynomial coefficients; the differential contracts against the linear
forms obtained by pairing a covector frame with the ray generators.
With deg z = 2 and odd generators of degree 1 the differential has
degree +1, and its cohomology carries a ring structure.

The differential is independent of the frame: written invariantly it is
sum_j z_j . (contraction with ray_j).  We nevertheless build it from a
frame so that presentations in different bases can be compared.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from fractions import Fraction

from . import linalg
from .fan import (Cone, Fan, FanError, _is_int_vector, dual_frame, lattice_index,
                  ray_coordinates_in_cone_basis)
from .linalg import CohomologySlot, RationalMatrix, Vector, cohomology_at, dot
from .srring import Monomial, SRPolynomial, cone_monomial_basis, sr_basis

ExtIndex = tuple[int, ...]          # sorted subset of 1..n
LGElement = dict[tuple[Monomial, ExtIndex], Fraction]


@functools.cache
def ext_subsets(n: int, k: int) -> tuple[ExtIndex, ...]:
    """The k-subsets of 1..n in lex order (none for k < 0), computed once per (n, k)."""
    return tuple(itertools.combinations(range(1, n + 1), k)) if k >= 0 else ()


def wedge_merge(s: ExtIndex, t: ExtIndex) -> tuple[int, ExtIndex] | None:
    """Koszul sign and merged index set of a wedge product; None if repeated."""
    if set(s) & set(t):
        return None
    inversions = sum(1 for a in s for b in t if a > b)
    return (-1 if inversions % 2 else 1), tuple(sorted(s + t))


class TwistedComplex:
    """Graded complex with cached per-slot differential matrices.

    Slot (k, m) holds wedges of k frame covectors with polynomial
    coefficients of doubled degree m; the differential lands in slot
    (k-1, m+2).  Blocks, total differentials and cohomology slots are
    cached write-once, so each total differential is eliminated once and
    reads are safe to share.
    """

    __slots__ = ("fan", "frame", "linear_forms", "_blocks", "_bases", "_totals", "_slots")

    def __init__(self, fan: Fan, frame: tuple[tuple[int, ...], ...],
                 linear_forms: tuple[SRPolynomial, ...]):
        self.fan = fan
        self.frame = frame
        self.linear_forms = linear_forms
        self._blocks, self._bases, self._totals, self._slots = {}, {}, {}, {}

    @property
    def rank(self) -> int:
        return self.fan.rank

    def basis(self, k: int, m: int) -> list[tuple[Monomial, ExtIndex]]:
        key = (k, m)
        if key not in self._bases:
            monos = sr_basis(self.fan, m)
            self._bases[key] = [(mono, s) for s in ext_subsets(self.rank, k) for mono in monos]
        return self._bases[key]

    def block(self, k: int, m: int) -> RationalMatrix:
        """Differential matrix on slot (k, m), landing in (k-1, m+2)."""
        key = (k, m)
        if key not in self._blocks:
            self._blocks[key] = koszul_block(self.fan, self.linear_forms, k, m)
        return self._blocks[key]

    def total_blocks(self, t: int) -> list[tuple[int, int]]:
        """(k, m) slots of total degree t = m + k, ordered by k."""
        out = []
        for k in range(0, min(self.rank, t) + 1):
            m = t - k
            if m >= 0 and m % 2 == 0:
                out.append((k, m))
        return out

    def total_basis(self, t: int) -> list[tuple[Monomial, ExtIndex]]:
        out = []
        for k, m in self.total_blocks(t):
            out.extend(self.basis(k, m))
        return out

    def total_differential(self, t: int) -> RationalMatrix:
        """Matrix of the differential from total degree t to t + 1."""
        if t not in self._totals:
            self._totals[t] = self._assemble_total(t)
        return self._totals[t]

    def _assemble_total(self, t: int) -> RationalMatrix:
        src_blocks = self.total_blocks(t)
        dst_blocks = self.total_blocks(t + 1)
        dst_pos = {km: i for i, km in enumerate(dst_blocks)}
        row_sizes = [len(self.basis(k, m)) for k, m in dst_blocks]
        col_sizes = [len(self.basis(k, m)) for k, m in src_blocks]
        blocks = {}
        for j, (k, m) in enumerate(src_blocks):
            if k >= 1 and (k - 1, m + 2) in dst_pos:
                blocks[(dst_pos[(k - 1, m + 2)], j)] = self.block(k, m)
        return linalg.block_matrix(row_sizes, col_sizes, blocks)

    def slot(self, t: int) -> CohomologySlot:
        """Cohomology slot at total degree t, computed once."""
        if t not in self._slots:
            d_in = self.total_differential(t - 1) if t >= 1 else \
                RationalMatrix.zeros(len(self.total_basis(0)), 0)
            self._slots[t] = cohomology_at(d_in, self.total_differential(t))
        return self._slots[t]


def _index_maps(fan: Fan, cone: Cone | None, m: int) -> tuple[int, int, dict[Monomial, list[int]]]:
    """|B(m)|, |B(m + 2)| and, for each ray variable z (of the cone), the row
    of z * b in B(m + 2) for every b in B(m), or -1 where that product is
    not in B(m + 2).

    B is ``sr_basis``, where a product leaves B(m + 2) when its support is
    not a face, or for a cone ``cone_monomial_basis``, which a product of
    the cone's variables never leaves.  Cached on the fan.
    """
    def build():
        if cone is None:
            src, dst, rays = sr_basis(fan, m), sr_basis(fan, m + 2), range(1, fan.num_rays + 1)
        else:
            src, dst = cone_monomial_basis(fan, cone, m), cone_monomial_basis(fan, cone, m + 2)
            rays = cone.ray_indices
        row = {mono: r for r, mono in enumerate(dst)}
        return len(src), len(dst), {z: [row.get(z.times(b), -1) for b in src]
                                    for z in map(Monomial.variable, rays)}

    return fan.table(("koszul maps", None if cone is None else cone.ray_indices, m), build)


def koszul_block(fan: Fan, forms: Sequence[SRPolynomial], k: int, m: int,
                 cone: Cone | None = None) -> RationalMatrix:
    """Matrix of sum_i forms[i] d/dx_i from slot (k, m) to slot (k - 1, m + 2).

    A slot's basis is subset-major, as in ``TwistedComplex.basis``: the
    k-subset s at position a of ``ext_subsets(n, k)`` times the monomial b
    of B(m) is column a * |B(m)| + b.  B is ``sr_basis``, or for the Cech
    local bases ``cone_monomial_basis`` of ``cone``.  Each form must be
    linear in the ray variables (its terms in normal form); so is every
    form the complexes build.

    The odd derivation d/dx_i removes i from s with the sign (-1)^(position
    of i), and the term c z of forms[i] sends b to z * b, whose row in
    B(m + 2) one index map (``_index_maps``, once per fan, variable,
    degree and cone) holds.  So each column is filled by index arithmetic;
    no monomial is multiplied or hashed per entry.  Distinct terms reach
    distinct entries, so no entry is a sum.
    """
    subsets = ext_subsets(fan.rank, k)
    dst_pos = {t: a for a, t in enumerate(ext_subsets(fan.rank, k - 1))}
    n_src, n_dst, maps = _index_maps(fan, cone, m)
    # per source subset: (row offset, coefficient, index map) of every term
    terms = []
    for s in subsets:
        out = []
        for pos, i in enumerate(s):
            offset = dst_pos[s[:pos] + s[pos + 1:]] * n_dst
            for z, c in forms[i - 1].terms:
                out.append((offset, -c if pos % 2 else c, maps[z]))
        terms.append(out)

    def action(j: int) -> dict[int, int | Fraction]:
        a, b = divmod(j, n_src)
        col = {}
        for offset, c, rows in terms[a]:
            r = rows[b]
            if r >= 0:
                col[offset + r] = c
        return col

    return linalg.matrix_from_action(len(dst_pos) * n_dst, len(subsets) * n_src, action)


def build_twisted(fan: Fan, frame: Sequence[Sequence[int]] | None = None) -> TwistedComplex:
    """Assemble the twisted complex for a covector frame (default identity).

    The frame must be an n x n matrix of integers (``int``, not ``bool``,
    ``float`` or ``str``) with determinant +-1; its rows pair with the ray
    generators to produce the coefficient forms.
    """
    n = fan.rank
    if frame is None:
        frame = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if not (isinstance(frame, (list, tuple)) and len(frame) == n
            and all(_is_int_vector(r, n) for r in frame) and lattice_index(frame, n) == 1):
        raise FanError("frame must be a unimodular integer matrix")
    frame_rows = tuple(tuple(r) for r in frame)
    forms = []
    for i in range(n):
        terms = {}
        for j in range(1, fan.num_rays + 1):
            c = dot(frame_rows[i], fan.ray(j))
            if c:
                terms[Monomial.variable(j)] = c
        forms.append(SRPolynomial.build(fan, terms))
    return TwistedComplex(fan, frame_rows, tuple(forms))


# -- elements ---------------------------------------------------------------


def lg_multiply(fan: Fan, x: LGElement, y: LGElement) -> LGElement:
    """Graded product; z variables are even, wedge generators odd."""
    out: LGElement = {}
    for (m1, s1), c1 in x.items():
        for (m2, s2), c2 in y.items():
            merged = wedge_merge(s1, s2)
            if merged is None:
                continue
            sign, subset = merged
            prod = m1.times(m2)
            if not fan.is_face(prod.support):
                continue
            key = (prod, subset)
            out[key] = out.get(key, Fraction(0)) + sign * c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def element_string(elt: LGElement) -> str:
    if not elt:
        return "0"
    parts = []
    for (mono, subset), coeff in sorted(elt.items(), key=lambda kv: (len(kv[0][1]), kv[0][1], kv[0][0].exps)):
        bits = []
        if coeff != 1 or (str(mono) == "1" and not subset):
            bits.append(str(coeff))
        if str(mono) != "1":
            bits.append(str(mono))
        if subset:
            bits.append("u" + "".join(str(i) for i in subset))
        parts.append("*".join(bits) if bits else "1")
    return " + ".join(parts)


# -- cohomology ---------------------------------------------------------------


class TotalCohomology:
    """Cohomology slots of a complex in total degrees 0..t_max."""

    __slots__ = ("t_max", "slots")

    def __init__(self, t_max: int, slots: dict[int, CohomologySlot]):
        self.t_max = t_max
        self.slots = slots

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(self.slots[t].dim for t in range(self.t_max + 1))


def default_t_max(fan: Fan) -> int:
    # cohomology of a complete fan vanishes above 2n; two extra degrees
    # give a vanishing sanity window
    return 2 * fan.rank + 2


def lg_cohomology(tc: TwistedComplex, t_max: int | None = None) -> TotalCohomology:
    """Cohomology of the twisted complex per total degree 0..t_max."""
    if t_max is None:
        t_max = default_t_max(tc.fan)
    return TotalCohomology(t_max, {t: tc.slot(t) for t in range(t_max + 1)})


class CohomologyRing:
    """Cohomology basis with structure constants.

    ``basis`` lists (degree, index) labels; ``constants`` maps a pair of
    labels to the coordinate vector of their product in the basis of the
    target degree.
    """

    __slots__ = ("tc", "t_max", "dims", "basis", "representatives", "constants")

    def __init__(self, tc: TwistedComplex, t_max: int, dims: tuple[int, ...],
                 basis: tuple[tuple[int, int], ...],
                 representatives: dict[tuple[int, int], LGElement],
                 constants: dict[tuple[int, int, int, int], Vector]):
        self.tc = tc
        self.t_max = t_max
        self.dims = dims
        self.basis = basis
        self.representatives = representatives
        self.constants = constants


def products_above_window_vanish(dims: Sequence[int],
                                 constants: dict[tuple[int, int, int, int], Vector]) -> bool:
    """True when the window's own data prove every product above it zero.

    ``dims`` are dim H^0..H^t_max and ``constants`` holds at least every
    product of a degree-2 class with a class of degree d - 2 <= t_max - 2.
    The conditions are H^1 = 0, H^(t_max - 1) = H^(t_max) = 0, and, for
    3 <= d <= t_max, that those products span H^d (a rank test on their
    coordinates).  By induction on d every class in the window is then a
    sum of products of degree-2 classes, the odd degrees being zero.  So
    for a, b in the window with deg a + deg b > t_max, write a as such a
    product and multiply it into b one degree-2 factor at a time
    (associativity): the partial products climb from deg b <= t_max in
    steps of 2, so one of them lands in degree t_max - 1 or t_max, where
    it is zero, and so is ab.

    The cohomology of a smooth complete or semi-projective fan is
    generated in degree 2 (Danilov, "The geometry of toric varieties",
    1978; Hausel-Sturmfels, "Toric hyperKahler varieties", 2002), so the
    test passes there once t_max - 1 exceeds the top degree.  It is
    checked on the computed constants, not assumed.
    """
    t_max = len(dims) - 1
    if t_max < 2 or dims[1] or dims[t_max - 1] or dims[t_max]:
        return False
    for d in range(3, t_max + 1):
        rows = [constants[(2, i, d - 2, j)] for i in range(dims[2]) for j in range(dims[d - 2])]
        if linalg.rank(RationalMatrix.from_rows(rows)) != dims[d]:
            return False
    return True


def ring_structure(tc: TwistedComplex, t_max: int | None = None) -> CohomologyRing:
    """Basis and structure constants of the cohomology ring up to t_max.

    Products of two basis classes are computed at the cochain level, for
    all pairs of basis labels (degrees up to 2 t_max), in one pass over
    their degrees in increasing order: the products of degree t form the
    columns of one matrix.  In the window they are reduced in the slot of
    their degree in one call; slots are shared with ``lg_cohomology``
    through ``tc``.  When the pass first leaves the window,
    ``products_above_window_vanish`` tests the window's constants.  If it
    certifies that every product above is zero, no slot is built there:
    each degree's columns are checked to be cocycles with one product by
    the total differential at t, and their coordinates are empty: each is
    the zero class, and H^t itself is not computed.  Otherwise (H^1 != 0
    on the zero fan, or a t_max below the top degree) they are reduced in
    the slot of their degree, as in the window.
    """
    if t_max is None:
        t_max = default_t_max(tc.fan)
    basis: list[tuple[int, int]] = []
    reps: dict[tuple[int, int], LGElement] = {}
    for t in range(t_max + 1):
        total = tc.total_basis(t)
        for i in range(tc.slot(t).dim):
            basis.append((t, i))
            reps[(t, i)] = {}
        for (i, r), v in tc.slot(t).representatives.entries.items():
            reps[(t, r)][total[i]] = v
    dims = tuple(tc.slot(t).dim for t in range(t_max + 1))

    by_degree: dict[int, list] = {}
    for a in basis:
        for b in basis:
            by_degree.setdefault(a[0] + b[0], []).append((a, b))
    constants: dict[tuple[int, int, int, int], Vector] = {}
    vanish = None
    for t in sorted(by_degree):
        pairs = by_degree[t]
        index = {b: i for i, b in enumerate(tc.total_basis(t))}
        columns = RationalMatrix(len(index), len(pairs), {
            (index[key], j): c for j, (a, b) in enumerate(pairs)
            for key, c in lg_multiply(tc.fan, reps[a], reps[b]).items()})
        if t > t_max and vanish is None:
            vanish = products_above_window_vanish(dims, constants)
        if t > t_max and vanish:
            if not (tc.total_differential(t) @ columns).is_zero():
                raise linalg.NoSolutionError("a product above the window is not a cocycle")
            classes = RationalMatrix.zeros(0, len(pairs))
        else:
            classes = tc.slot(t).reduce(columns)
        constants.update((a + b, classes.column(j)) for j, (a, b) in enumerate(pairs))
    return CohomologyRing(tc, t_max, dims, tuple(basis), reps, constants)


# -- regular sequence test ----------------------------------------------------


class LsopReport:
    """Hilbert-series test of the coefficient forms as a regular sequence."""

    __slots__ = ("regular", "dims", "expected", "max_degree")

    def __init__(self, regular: bool, dims: tuple[int, ...], expected: tuple[int, ...],
                 max_degree: int):
        self.regular = regular
        self.dims = dims            # quotient dims at even degrees 0..max_degree
        self.expected = expected    # ring series times (1 - u)^rank
        self.max_degree = max_degree


def lsop_check(tc: TwistedComplex) -> LsopReport:
    """Regular-sequence test for the coefficient forms via Hilbert series.

    True iff the quotient dims equal the ring series times (1 - u)^n
    coefficientwise up to degree 2n + 4 and the quotient vanishes strictly
    above degree 2n.

    The degree-m slice of the quotient R/(forms) is the cokernel of the
    complex's cached block from slot (1, m - 2) to slot (0, m): it sends
    u_i times a monomial of degree m - 2 to forms[i] times that monomial.
    So its dimension is |sr_basis(m)| minus the rank of that block.
    """
    fan = tc.fan
    n = fan.rank
    max_degree = 2 * n + 4
    degrees = range(0, max_degree + 1, 2)
    ring_dims = [len(sr_basis(fan, m)) for m in degrees]
    dims = tuple(d - linalg.rank(tc.block(1, m - 2)) for d, m in zip(ring_dims, degrees))
    expected = []
    for a in range(len(ring_dims)):
        val = sum((-1) ** j * math.comb(n, j) * ring_dims[a - j]
                  for j in range(0, min(n, a) + 1))
        expected.append(val)
    expected_t = tuple(expected)
    vanish = all(dims[a] == 0 for a in range(len(dims)) if 2 * a > 2 * n)
    nonzero_forms = all(not f.is_zero() for f in tc.linear_forms)
    regular = nonzero_forms and dims == expected_t and vanish
    return LsopReport(regular, dims, expected_t, max_degree)


# -- presentation in the basis dual to a full-dimensional cone ----------------


class DerivationPresentation:
    """Log-derivation presentation pinned to one full-dimensional cone.

    ``coefficients[j]`` are the integer coordinates of the j-th extra ray
    in the cone's ray basis; ``differential_coeffs[i]`` is the degree-2
    form multiplying the i-th odd generator.  Immutable by convention.
    """

    __slots__ = ("cone", "base", "extra", "coefficients", "differential_coeffs", "frame",
                 "checked_degree")

    def __init__(self, cone: Cone, base: tuple[int, ...], extra: tuple[int, ...],
                 coefficients: tuple[tuple[int, ...], ...],
                 differential_coeffs: tuple[SRPolynomial, ...],
                 frame: tuple[tuple[int, ...], ...], checked_degree: int):
        self.cone = cone
        self.base = base
        self.extra = extra
        self.coefficients = coefficients
        self.differential_coeffs = differential_coeffs
        self.frame = frame
        self.checked_degree = checked_degree


def log_derivations(fan: Fan, cone: Cone) -> DerivationPresentation:
    """Presentation of the twisted complex by log derivations of a cone.

    The coefficient forms are rebuilt from the lattice coordinates of the
    rays outside the cone (``ray_coordinates_in_cone_basis``, its own
    solve) and compared with the forms of the complex built from the dual
    covector frame of the cone (``build_twisted``).  A mismatch raises,
    since the two constructions must agree exactly.

    Comparing the forms is the same check as comparing the differential
    matrices in every degree: ``koszul_block`` is a function of the fan,
    the forms and the slot, so equal forms give equal blocks, and the
    columns of block (1, 0) are the forms' coefficients, so unequal forms
    differ there.  So the blocks agree in every total degree >= 1, those
    up to ``default_t_max`` (recorded as ``checked_degree``) among them,
    exactly when the forms do.
    """
    n = fan.rank
    if cone.dim != n:
        raise FanError(f"cone {cone} is not full-dimensional")
    base = cone.ray_indices
    extra = tuple(i for i in range(1, fan.num_rays + 1) if i not in cone.index_set)
    coeffs = tuple(ray_coordinates_in_cone_basis(fan, cone, l) for l in extra)

    frame = dual_frame(fan.rays, cone)

    forms = []
    for i in range(n):
        terms = {Monomial.variable(base[i]): 1}
        for pos, l in enumerate(extra):
            a = coeffs[pos][i]
            if a:
                terms[Monomial.variable(l)] = a
        forms.append(SRPolynomial.build(fan, terms))

    if build_twisted(fan, frame).linear_forms != tuple(forms):
        raise FanError(f"presentation mismatch for cone {cone}")
    return DerivationPresentation(cone, base, extra, coeffs, tuple(forms), frame, default_t_max(fan))
