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
from collections.abc import Callable, Sequence
from fractions import Fraction

from . import linalg
from .fan import Cone, Fan, FanError, _is_int_vector, lattice_index, ray_coordinates_in_cone_basis
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


def graded_slots(n: int, t: int) -> list[tuple[int, int]]:
    """The slots (k, m) of total degree t = k + m of the rank-n complex,
    ordered by k: 0 <= k <= n and m >= 0 even."""
    return [(k, t - k) for k in range(min(n, t) + 1) if (t - k) % 2 == 0]


def total_matrix(src: dict, dst: dict, maps: Callable) -> RationalMatrix:
    """The map between two total spaces, each the sum of its slots in the
    order of the dict that gives each slot's dimension.

    ``maps(*slot)`` yields (target slot, map) for one source slot; a target
    that ``dst`` lacks takes no block.  ``linalg.block_matrix`` places each
    map at its slots' offsets and checks its shape.
    """
    pos = {slot: i for i, slot in enumerate(dst)}
    return linalg.block_matrix(list(dst.values()), list(src.values()), {
        (pos[target], j): a for j, slot in enumerate(src) for target, a in maps(*slot) if target in pos})


class TwistedComplex:
    """Graded complex with cached per-slot differential matrices.

    Slot (k, m) holds wedges of k frame covectors with polynomial
    coefficients of doubled degree m; the differential lands in slot
    (k-1, m+2).  Blocks, total differentials and the dict of cohomology
    slots that ``lg_cohomology`` extends are tables (``Fan.table``), so each
    total differential is eliminated once; slot bases are not kept.
    """

    __slots__ = ("fan", "linear_forms", "_tables")

    table = Fan.table

    def __init__(self, fan: Fan, linear_forms: tuple[SRPolynomial, ...]):
        self.fan = fan
        self.linear_forms = linear_forms
        self._tables: dict = {}

    @property
    def rank(self) -> int:
        return self.fan.rank

    def basis(self, k: int, m: int) -> list[tuple[Monomial, ExtIndex]]:
        monos = sr_basis(self.fan, m)
        return [(mono, s) for s in ext_subsets(self.rank, k) for mono in monos]

    def block(self, k: int, m: int) -> RationalMatrix:
        """Differential matrix on slot (k, m), landing in (k-1, m+2)."""
        return self.table(("block", k, m), lambda: koszul_block(self.fan, self.linear_forms, k, m))

    def total_blocks(self, t: int) -> list[tuple[int, int]]:
        """(k, m) slots of total degree t = m + k, ordered by k."""
        return graded_slots(self.rank, t)

    def total_basis(self, t: int) -> list[tuple[Monomial, ExtIndex]]:
        return [b for k, m in self.total_blocks(t) for b in self.basis(k, m)]

    def total_differential(self, t: int) -> RationalMatrix:
        """Matrix of the differential from total degree t to t + 1: the
        blocks (k, m) -> (k - 1, m + 2) placed by ``total_matrix``."""
        sizes = lambda u: {(k, m): math.comb(self.rank, k) * len(sr_basis(self.fan, m))
                           for k, m in self.total_blocks(u)}
        maps = lambda k, m: [((k - 1, m + 2), self.block(k, m))] if k else []
        return self.table(("total", t), lambda: total_matrix(sizes(t), sizes(t + 1), maps))


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
    forms = []
    for i in range(n):
        terms = {}
        for j in range(1, fan.num_rays + 1):
            c = dot(frame[i], fan.ray(j))
            if c:
                terms[Monomial.variable(j)] = c
        forms.append(SRPolynomial.build(fan, terms))
    return TwistedComplex(fan, tuple(forms))


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
    """Cohomology slots of a complex in total degrees 0..t_max (None: known zero)."""

    __slots__ = ("t_max", "slots")

    def __init__(self, t_max: int, slots: dict[int, CohomologySlot | None]):
        self.t_max = t_max
        self.slots = slots

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(0 if self.slots[t] is None else self.slots[t].dim
                     for t in range(self.t_max + 1))


def default_t_max(fan: Fan) -> int:
    # cohomology of a complete fan vanishes above 2n; two extra degrees
    # give a vanishing sanity window
    return 2 * fan.rank + 2


def total_cohomology(t_max: int, differential: Callable[[int], RationalMatrix],
                     slots: dict[int, CohomologySlot] | None = None) -> TotalCohomology:
    """Slots 0..t_max of the complex whose total differentials are
    ``differential(t)``, built in order of t by ``cohomology_at``.

    ``slots`` is the complex's own cache of slots 0..s, which this
    extends.  A differential's RREF is freed once the slots on both
    sides of it exist, since neither reads it again.
    """
    slots = {} if slots is None else slots
    for t in range(t_max + 1):
        if t not in slots:
            d_in = differential(t - 1) if t else RationalMatrix.zeros(differential(0).cols, 0)
            slots[t] = cohomology_at(d_in, differential(t))
            linalg.drop_elimination(d_in)
    return TotalCohomology(t_max, {t: slots[t] for t in range(t_max + 1)})


def lg_cohomology(tc: TwistedComplex, t_max: int | None = None,
                  lsop: LsopReport | None = None) -> TotalCohomology:
    """Cohomology of the twisted complex per total degree 0..t_max: its
    slots, cached on ``tc``, or given ``lsop_check``'s report of a regular
    sequence the quotient's slots over ``tc.basis(0, t)``, None where H^t
    is zero there (odd t, t > 2n)."""
    if t_max is None:
        t_max = default_t_max(tc.fan)
    if lsop is None or not lsop.regular:
        return total_cohomology(t_max, tc.total_differential, tc.table(("slots",), dict))
    return TotalCohomology(t_max, {t: None if t % 2 or t > 2 * tc.rank else lsop.slots[t // 2]
                                   for t in range(t_max + 1)})


class CohomologyRing:
    """Cohomology basis with structure constants.

    ``basis`` lists (degree, index) labels; ``constants`` maps a pair of
    labels to the coordinate vector of their product in the basis of the
    target degree.
    """

    __slots__ = ("t_max", "dims", "basis", "representatives", "constants")

    def __init__(self, t_max: int, dims: tuple[int, ...],
                 basis: tuple[tuple[int, int], ...],
                 representatives: dict[tuple[int, int], LGElement],
                 constants: dict[tuple[int, int, int, int], Vector]):
        self.t_max = t_max
        self.dims = dims
        self.basis = basis
        self.representatives = representatives
        self.constants = constants


def ring_structure(tc: TwistedComplex, t_max: int | None = None,
                   lsop: LsopReport | None = None) -> CohomologyRing:
    """Basis and structure constants of the cohomology ring up to t_max.

    Products of two basis classes are computed at the cochain level, for
    all pairs of basis labels (degrees up to 2 t_max), in one pass over
    their degrees: the products of degree t form the columns of one
    matrix, reduced in one call in the slot of H^t that ``lg_cohomology``
    gives, degree by degree, so a non-cocycle product raises before any
    higher slot is built.  That is the twisted slot, cached on ``tc``, or,
    given ``lsop_check``'s report of a regular sequence, the quotient's
    slot, which gives the same basis and constants; a product whose H^t is
    zero there has empty coordinates and is not formed.
    """
    if t_max is None:
        t_max = default_t_max(tc.fan)
    # the basis a degree's cochains are written in: the quotient's lives in exterior degree 0
    ambient = functools.partial(tc.basis, 0) if lsop is not None and lsop.regular else tc.total_basis
    coh = lg_cohomology(tc, t_max, lsop)
    basis = [(t, i) for t, dim in enumerate(coh.dims) for i in range(dim)]
    reps: dict[tuple[int, int], LGElement] = {a: {} for a in basis}
    for t in {t for t, _ in basis}:
        total = ambient(t)
        for (i, r), v in coh.slots[t].representatives.entries.items():
            reps[(t, r)][total[i]] = v

    by_degree: dict[int, list] = {}
    for a in basis:
        for b in basis:
            by_degree.setdefault(a[0] + b[0], []).append((a, b))
    constants: dict[tuple[int, int, int, int], Vector] = {}
    for t in sorted(by_degree):
        pairs = by_degree[t]
        slot = lg_cohomology(tc, t, lsop).slots[t]
        if slot is None:
            classes = RationalMatrix.zeros(0, len(pairs))
        else:
            index = {b: i for i, b in enumerate(ambient(t))}
            classes = slot.reduce(RationalMatrix(len(index), len(pairs), {
                (index[key], j): c for j, (a, b) in enumerate(pairs)
                for key, c in lg_multiply(tc.fan, reps[a], reps[b]).items()}))
        constants.update((a + b, classes.column(j)) for j, (a, b) in enumerate(pairs))
    return CohomologyRing(t_max, coh.dims, tuple(basis), reps, constants)


# -- regular sequence test ----------------------------------------------------


class LsopReport:
    """Hilbert-series test of the coefficient forms as a regular sequence."""

    __slots__ = ("regular", "slots", "dims", "expected", "max_degree")

    def __init__(self, regular: bool, slots: tuple[CohomologySlot, ...],
                 expected: tuple[int, ...], max_degree: int):
        self.regular = regular
        self.slots = slots          # quotient slots at even degrees 0..max_degree
        self.dims = tuple(s.dim for s in slots)
        self.expected = expected    # ring series times (1 - u)^rank
        self.max_degree = max_degree


def lsop_check(tc: TwistedComplex) -> LsopReport:
    """Regular-sequence test for the coefficient forms via Hilbert series.

    True iff the quotient dims equal the ring series times (1 - u)^n
    coefficientwise up to degree 2n + 4 and the quotient vanishes strictly
    above degree 2n.  The degree-m slice of the quotient R/(forms) is the
    cokernel of the complex's cached block from slot (1, m - 2) to slot
    (0, m), which sends u_i times a monomial b to forms[i] times b; the
    report keeps its slot, ``cohomology_at(block(1, m - 2), zeros(0, |B(m)|))``.

    Why the test decides regularity (Stanley, *Combinatorics and
    Commutative Algebra*, I.5; Bruns-Herzog 1.6): R is generated in degree
    2, so a quotient zero at 2n + 2 is zero above.  The ring series times
    (1 - u)^n is a polynomial of degree at most 2n, so equality up to
    2n + 4 is equality of the series.  It vanishes at u = 1 unless dim R =
    n, so the forms are then a system of parameters, and for those the
    equality holds exactly when they are a regular sequence.  The twisted
    complex is the Koszul complex on the forms, with exterior degree k as
    its homological degree, and splits into Koszul strands.  So then H^t =
    (R/forms)_t for even t, H^t = 0 for odd t, and every class lives in
    exterior degree 0.

    Why the quotient's slots give the twisted ring entry for entry: a
    slot's representatives are the canonical kernel vectors that the
    greedy left-to-right choice keeps, each independent of those kept
    before modulo im d_in (the complement of a greedy basis is the greedy
    basis of the dual matroid; ``linalg.CohomologySlot``).  The total basis
    puts exterior degree 0 first, where the differential is zero, so those
    columns are free with unit kernel vectors of sign +1, and a vector
    there is a coboundary exactly when it lies in im block(1, t - 2).  They
    already span H^t, so the greedy stops inside them, and the quotient's
    slot runs the same greedy on the same unit vectors in the same order.
    Class coordinates are unique once the basis is fixed, so the structure
    constants are equal too.
    """
    n = tc.rank
    degrees = range(0, 2 * n + 5, 2)
    ring_dims = [len(sr_basis(tc.fan, m)) for m in degrees]
    slots = tuple(cohomology_at(tc.block(1, m - 2), RationalMatrix.zeros(0, d))
                  for d, m in zip(ring_dims, degrees))
    expected = tuple(sum((-1) ** j * math.comb(n, j) * ring_dims[a - j]
                         for j in range(0, min(n, a) + 1)) for a in range(len(ring_dims)))
    dims = tuple(s.dim for s in slots)
    regular = all(not f.is_zero() for f in tc.linear_forms) and dims == expected and not any(dims[n + 1:])
    return LsopReport(regular, slots, expected, 2 * n + 4)


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
    rays outside the cone (``ray_coordinates_in_cone_basis``) and compared
    with the forms of the complex built from the dual covector frame of
    the cone (``build_twisted``).  A mismatch raises, since the two
    constructions must agree exactly.  Both sides read the cone's one
    frame (``Fan.frame``), whose pairings with the rays are the
    coordinates; a second inversion would check nothing more, being the
    same elimination of the same [B | I].

    Comparing the forms is the same check as comparing the differential
    matrices in every degree: ``koszul_block`` is a function of the fan,
    the forms and the slot, so equal forms give equal blocks, and the
    columns of block (1, 0) are the forms' coefficients, so unequal forms
    differ there.  So the blocks agree in every total degree >= 1, those
    up to ``default_t_max`` (recorded as ``checked_degree``) among them,
    exactly when the forms do.
    """
    frame = fan.frame(cone)
    base = cone.ray_indices
    extra = tuple(i for i in range(1, fan.num_rays + 1) if i not in cone.index_set)
    coeffs = tuple(ray_coordinates_in_cone_basis(fan, cone, l) for l in extra)

    forms = []
    for i in range(fan.rank):
        terms = {Monomial.variable(base[i]): 1}
        for pos, l in enumerate(extra):
            a = coeffs[pos][i]
            if a:
                terms[Monomial.variable(l)] = a
        forms.append(SRPolynomial.build(fan, terms))

    if build_twisted(fan, frame).linear_forms != tuple(forms):
        raise FanError(f"presentation mismatch for cone {cone}")
    return DerivationPresentation(cone, base, extra, coeffs, tuple(forms), frame, default_t_max(fan))
