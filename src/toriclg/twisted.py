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

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .fan import Cone, Fan, FanError, _is_int_vector, lattice_index, ray_coordinates_in_cone_basis
from .linalg import CohomologySlot, RationalMatrix, Vector, cohomology_at, dot
from .srring import Monomial, SRPolynomial, sr_basis

ExtIndex = tuple[int, ...]          # sorted subset of 1..n
LGElement = dict[tuple[Monomial, ExtIndex], Fraction]


def ext_subsets(n: int, k: int) -> list[ExtIndex]:
    return list(itertools.combinations(range(1, n + 1), k))


def wedge_merge(s: ExtIndex, t: ExtIndex) -> tuple[int, ExtIndex] | None:
    """Koszul sign and merged index set of a wedge product; None if repeated."""
    if set(s) & set(t):
        return None
    inversions = sum(1 for a in s for b in t if a > b)
    return (-1 if inversions % 2 else 1), tuple(sorted(s + t))


@dataclass
class TwistedComplex:
    """Graded complex with cached per-slot differential matrices.

    Slot (k, m) holds wedges of k frame covectors with polynomial
    coefficients of doubled degree m; the differential lands in slot
    (k-1, m+2).  Blocks, total differentials and cohomology slots are
    cached write-once, so each total differential is eliminated once and
    reads are safe to share.
    """

    fan: Fan
    frame: tuple[tuple[int, ...], ...]
    linear_forms: tuple[SRPolynomial, ...]
    _blocks: dict = field(default_factory=dict, repr=False)
    _bases: dict = field(default_factory=dict, repr=False)
    _totals: dict = field(default_factory=dict, repr=False)
    _slots: dict = field(default_factory=dict, repr=False)

    @property
    def rank(self) -> int:
        return self.fan.rank

    def basis(self, k: int, m: int) -> list[tuple[Monomial, ExtIndex]]:
        key = (k, m)
        if key not in self._bases:
            if k < 0 or k > self.rank:
                self._bases[key] = []
            else:
                monos = sr_basis(self.fan, m)
                self._bases[key] = [(mono, s) for s in ext_subsets(self.rank, k) for mono in monos]
        return self._bases[key]

    def block(self, k: int, m: int) -> RationalMatrix:
        """Differential matrix on slot (k, m), landing in (k-1, m+2)."""
        key = (k, m)
        if key not in self._blocks:
            self._blocks[key] = koszul_block(
                self.fan, self.linear_forms,
                self.basis(k, m), self.basis(k - 1, m + 2))
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

    def verify_square_zero(self, t_max: int) -> bool:
        for t in range(t_max + 1):
            if not (self.total_differential(t + 1) @ self.total_differential(t)).is_zero():
                return False
        return True


def _contraction_terms(fan: Fan, forms: Sequence[SRPolynomial], mono: Monomial,
                       subset: ExtIndex):
    """Terms ((monomial, wedge), coefficient) of sum_i forms[i] d/dx_i on mono * u_subset.

    The odd derivation d/dx_i removes i from the sorted wedge with the sign
    (-1)^(position of i).
    """
    is_face = fan.is_face
    for pos, i in enumerate(subset):
        rest = subset[:pos] + subset[pos + 1:]
        for fmono, fcoef in forms[i - 1].terms:
            prod = fmono.times(mono)
            if is_face(prod.support):
                yield (prod, rest), (-fcoef if pos % 2 else fcoef)


def koszul_block(fan: Fan, forms: Sequence[SRPolynomial],
                 src: list[tuple[Monomial, ExtIndex]],
                 dst: list[tuple[Monomial, ExtIndex]]) -> RationalMatrix:
    """Matrix of sum_i forms[i] d/dx_i between explicit slot bases."""
    index = {b: i for i, b in enumerate(dst)}

    def action(j: int) -> dict[int, int | Fraction]:
        out: dict[int, int | Fraction] = {}
        for key, coeff in _contraction_terms(fan, forms, *src[j]):
            row = index[key]
            out[row] = out.get(row, 0) + coeff
        return out

    return linalg.matrix_from_action(len(dst), len(src), action)


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


def lg_differential(tc: TwistedComplex, x: LGElement) -> LGElement:
    """The twisted differential applied to one element, term by term."""
    out: LGElement = {}
    for (mono, subset), coeff in x.items():
        for key, term in _contraction_terms(tc.fan, tc.linear_forms, mono, subset):
            out[key] = out.get(key, Fraction(0)) + coeff * term
    return {k: v for k, v in out.items() if v != 0}


def lg_degree(x: LGElement) -> int | None:
    degrees = {mono.degree + len(s) for (mono, s) in x}
    if not degrees:
        return None
    if len(degrees) > 1:
        raise FanError("element is not homogeneous")
    return degrees.pop()


def element_from_vector(tc: TwistedComplex, t: int, vec: Sequence) -> LGElement:
    basis = tc.total_basis(t)
    return {basis[i]: Fraction(v) for i, v in enumerate(vec) if Fraction(v) != 0}


def vector_from_element(tc: TwistedComplex, t: int, elt: LGElement) -> Vector:
    basis = tc.total_basis(t)
    index = {b: i for i, b in enumerate(basis)}
    out = [Fraction(0)] * len(basis)
    for key, coeff in elt.items():
        out[index[key]] = coeff
    return tuple(out)


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


@dataclass
class TotalCohomology:
    """Cohomology slots of a complex in total degrees 0..t_max."""

    t_max: int
    slots: dict[int, CohomologySlot]

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


@dataclass
class CohomologyRing:
    """Cohomology basis with structure constants.

    ``basis`` lists (degree, index) labels; ``constants`` maps a pair of
    labels to the coordinate vector of their product in the basis of the
    target degree.
    """

    tc: TwistedComplex
    t_max: int
    dims: tuple[int, ...]
    basis: tuple[tuple[int, int], ...]
    representatives: dict[tuple[int, int], LGElement]
    constants: dict[tuple[int, int, int, int], Vector]

    def product(self, a: tuple[int, int], b: tuple[int, int]) -> Vector:
        key = (a[0], a[1], b[0], b[1])
        if key not in self.constants:
            raise FanError(f"product degree {a[0] + b[0]} exceeds the computed range")
        return self.constants[key]

    def check_axioms(self) -> list[str]:
        """Unit, graded commutativity and associativity inside the window."""
        problems = []
        if self.dims and self.dims[0] == 1:
            unit = (0, 0)
            for lbl in self.basis:
                got = self.product(unit, lbl)
                want = tuple(Fraction(1) if i == lbl[1] else Fraction(0)
                             for i in range(self.dims[lbl[0]]))
                if got != want:
                    problems.append(f"unit fails on {lbl}")
        for a in self.basis:
            for b in self.basis:
                if a[0] + b[0] > self.t_max:
                    continue
                sign = -1 if (a[0] % 2) and (b[0] % 2) else 1
                lhs = self.product(a, b)
                rhs = linalg.scale_vector(sign, self.product(b, a))
                if lhs != rhs:
                    problems.append(f"graded commutativity fails on {a}, {b}")
        for a in self.basis:
            for b in self.basis:
                for c in self.basis:
                    td = a[0] + b[0] + c[0]
                    if a[0] + b[0] > self.t_max or b[0] + c[0] > self.t_max or td > self.t_max:
                        continue
                    zero = (Fraction(0),) * self.dims[td]
                    left = zero
                    for i, coeff in enumerate(self.product(a, b)):
                        if coeff:
                            left = linalg.add_vectors(
                                left, linalg.scale_vector(coeff, self.product((a[0] + b[0], i), c)))
                    right = zero
                    for i, coeff in enumerate(self.product(b, c)):
                        if coeff:
                            right = linalg.add_vectors(
                                right, linalg.scale_vector(coeff, self.product(a, (b[0] + c[0], i))))
                    if left != right:
                        problems.append(f"associativity fails on {a}, {b}, {c}")
        return problems


def ring_structure(tc: TwistedComplex, t_max: int | None = None) -> CohomologyRing:
    """Basis and structure constants of the cohomology ring up to t_max.

    Products of two basis classes are computed at the cochain level and
    reduced in the slot of the sum degree, so products are available for
    all pairs of basis labels (degrees up to 2 t_max).  Slots are shared
    with ``lg_cohomology`` through ``tc``.
    """
    if t_max is None:
        t_max = default_t_max(tc.fan)
    basis: list[tuple[int, int]] = []
    reps: dict[tuple[int, int], LGElement] = {}
    for t in range(t_max + 1):
        for i, rep in enumerate(tc.slot(t).representatives):
            basis.append((t, i))
            reps[(t, i)] = element_from_vector(tc, t, rep)
    dims = tuple(tc.slot(t).dim for t in range(t_max + 1))

    constants: dict[tuple[int, int, int, int], Vector] = {}
    for (ta, ia) in basis:
        for (tb, ib) in basis:
            t = ta + tb
            prod = lg_multiply(tc.fan, reps[(ta, ia)], reps[(tb, ib)])
            vecp = vector_from_element(tc, t, prod)
            constants[(ta, ia, tb, ib)] = tc.slot(t).reduce(vecp)
    return CohomologyRing(tc, t_max, dims, tuple(basis), reps, constants)


# -- regular sequence test ----------------------------------------------------


@dataclass
class LsopReport:
    """Hilbert-series test of the coefficient forms as a regular sequence."""

    regular: bool
    dims: tuple[int, ...]            # quotient dims at even degrees 0..max_degree
    expected: tuple[int, ...]        # ring series times (1 - u)^rank
    max_degree: int
    slots: dict[int, CohomologySlot]


def lsop_check(tc: TwistedComplex, max_degree: int | None = None) -> LsopReport:
    """Regular-sequence test for the coefficient forms via Hilbert series.

    True iff the quotient dims equal the ring series times (1 - u)^n
    coefficientwise up to max_degree and the quotient vanishes strictly
    above degree 2n.  When true the quotient slots present the cohomology
    ring independently of the twisted complex.

    The degree-m slice of the quotient R/(forms) is the cokernel of the
    complex's cached block from slot (1, m - 2) to slot (0, m): it sends
    u_i times a monomial of degree m - 2 to forms[i] times that monomial.
    """
    fan = tc.fan
    n = fan.rank
    if max_degree is None:
        max_degree = 2 * n + 4
    if max_degree < 2 * n or max_degree % 2:
        raise FanError("max_degree must be even and at least 2n")
    degrees = range(0, max_degree + 1, 2)
    slots = {m: cohomology_at(tc.block(1, m - 2), RationalMatrix.zeros(0, len(tc.basis(0, m))))
             for m in degrees}
    dims = tuple(slots[m].dim for m in degrees)
    ring_dims = [len(sr_basis(fan, m)) for m in degrees]
    expected = []
    for a in range(len(ring_dims)):
        val = sum((-1) ** j * math.comb(n, j) * ring_dims[a - j]
                  for j in range(0, min(n, a) + 1))
        expected.append(val)
    expected_t = tuple(expected)
    vanish = all(dims[a] == 0 for a in range(len(dims)) if 2 * a > 2 * n)
    nonzero_forms = all(not f.is_zero() for f in tc.linear_forms)
    regular = nonzero_forms and dims == expected_t and vanish
    return LsopReport(regular, dims, expected_t, max_degree, slots)


# -- presentation in the basis dual to a full-dimensional cone ----------------


@dataclass(frozen=True)
class DerivationPresentation:
    """Log-derivation presentation pinned to one full-dimensional cone.

    ``coefficients[j]`` are the integer coordinates of the j-th extra ray
    in the cone's ray basis; ``differential_coeffs[i]`` is the degree-2
    form multiplying the i-th odd generator.
    """

    cone: Cone
    base: tuple[int, ...]
    extra: tuple[int, ...]
    coefficients: tuple[tuple[int, ...], ...]
    differential_coeffs: tuple[SRPolynomial, ...]
    frame: tuple[tuple[int, ...], ...]
    checked_degree: int

    def generator(self, i: int) -> list[tuple[int, int]]:
        """The i-th generator as (ray index, coefficient) pairs over log derivations."""
        out = [(self.base[i], 1)]
        for pos, l in enumerate(self.extra):
            a = self.coefficients[pos][i]
            if a:
                out.append((l, a))
        return out


def log_derivations(fan: Fan, cone: Cone, check_degree: int | None = None) -> DerivationPresentation:
    """Presentation of the twisted complex by log derivations of a cone.

    The coefficient forms are rebuilt from the lattice coordinates of the
    rays outside the cone and checked, matrix by matrix up
    to ``check_degree``, against the complex built from the dual covector
    frame of the cone.  A mismatch raises, since the two constructions
    must agree exactly.
    """
    n = fan.rank
    if cone.dim != n:
        raise FanError(f"cone {cone} is not full-dimensional")
    if check_degree is None:
        check_degree = default_t_max(fan)
    base = cone.ray_indices
    extra = tuple(i for i in range(1, fan.num_rays + 1) if i not in cone.index_set)
    coeffs = tuple(ray_coordinates_in_cone_basis(fan, cone, l) for l in extra)

    rows = RationalMatrix.from_rows([fan.ray(i) for i in base])
    frame_m = linalg.inverse(rows.transpose())
    frame = tuple(tuple(int(x) for x in row) for row in frame_m.to_rows())

    forms = []
    for i in range(n):
        terms = {Monomial.variable(base[i]): 1}
        for pos, l in enumerate(extra):
            a = coeffs[pos][i]
            if a:
                terms[Monomial.variable(l)] = a
        forms.append(SRPolynomial.build(fan, terms))

    tc = build_twisted(fan, frame)
    for t in range(check_degree + 1):
        for k, m in tc.total_blocks(t):
            if k < 1:
                continue
            direct = koszul_block(fan, forms, tc.basis(k, m), tc.basis(k - 1, m + 2))
            if direct != tc.block(k, m):
                raise FanError(
                    f"presentation mismatch at slot (k={k}, m={m}) for cone {cone}")
    return DerivationPresentation(cone, base, extra, coeffs, tuple(forms), frame, check_degree)
