"""Cech complexes over a cone cover and the associated double complexes.

A cover of the fan support by cones induces two coefficient systems on
the full simplex over the cover, named by a tag:

  * "forms": polynomial functions of the intersection subspaces tensored
    with the exterior algebra, carrying the twisted vertical
    differential.  The polynomial functions are the forms of exterior
    degree k = 0.
  * "const": the constant-coefficient wedge powers of the cone
    annihilators, written in ambient wedge coordinates by
    ``CoverSimplex.const_matrix``.

A forms slot (p, k, m) is laid out as the twisted slot (k, m) over the
p-simplex cones' monomial bases (``CoverSimplex.slot_layout``), so one
``koszul_block`` over those cones writes its vertical differential.

The module provides the horizontal differential, signed restrictions of
the coefficient system from each cone to its faces, the exactness check of
the augmented complex in every degree, total complexes written by the
twisted complex's writer ``total_matrix`` from one map per slot (the delta,
the Koszul vertical and the inclusion), each a table of ``Fan.table``
built once, quasi-isomorphism verification between the three pipelines,
and the front/back-face cup product on total-complex columns.

Sign conventions, fixed here once:
  * horizontal delta removes vertices with alternating signs;
  * the total differential is D = delta + (-1)^p * vertical;
  * cup products carry the twist (-1)^(value degree of the left factor
    times Cech degree of the right factor), so that D is a derivation of
    total degree 1: D(x cup y) = Dx cup y + (-1)^t1 x cup Dy for x of
    total degree t1.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction

from . import linalg
from .fan import Cone, Fan, FanError
from .linalg import (
    LinearSolver,
    RationalMatrix,
    Vector,
    cohomology_at,  # noqa: F401 - perfbench/tests checks that the tracer wraps this copy
    kernel_basis,
)
from .srring import cone_monomial_basis, sr_basis
from .twisted import (
    LGElement,
    TotalCohomology,
    TwistedComplex,
    build_twisted,
    default_t_max,
    ext_subsets,
    graded_slots,
    koszul_block,
    lg_cohomology,
    lg_multiply,
    total_cohomology,
    total_matrix,
    wedge_merge,
)

TAG_FORMS = "forms"
TAG_CONST = "const"

Simplex = tuple[int, ...]  # sorted 0-based cover positions

# Largest cover; the complexes enumerate its 2^size - 1 simplices.  The limit
# counts cones, not work, and was measured on surfaces only: verify on the 7-, 8-
# and 9-ray surfaces (covered by their 7, 8, 9 maximal cones) takes 0.14, 0.14
# and 0.23 s and 17, 19 and 24 MB; from 12 cones (1.4 s, 114 MB) each cone about
# doubles both, and 14 take 5.9 s and 416 MB, past the 5 s / 250 MB of the CLI's
# MAX_DEGREE (median of 5 runs, peak RSS of the child; 2-core VM, Python 3.11.7).
# In higher rank it admits far more work: verify on P^6 (7 cones) passed 2.3 GB
# RSS 37 s into the job, still growing when it was killed.  A limit on the work
# itself is ROADMAP item 6.
MAX_COVER_DEFAULT = 8


class CechError(FanError):
    pass


class CoverSimplex:
    """A cone cover of the fan support and its full simplex.

    The cover must contain every maximal cone (a cone cannot be covered
    by proper faces), and may repeat intersections; nothing assumes the
    simplex-to-cone map is injective.  Vertex order is the input order.
    Layouts, blocks, solvers, matrices and the identity-frame twisted
    complex are tables of ``Fan.table``, written once, so shared read
    access is safe.
    """

    fan: Fan
    cover: tuple[Cone, ...]

    table = Fan.table

    def __init__(self, fan: Fan, cover: Sequence[Cone] | None = None):
        self.fan = fan
        if cover is None:
            cover = fan.max_cones
        cover = tuple(fan.cone(c.ray_indices) for c in cover)
        for mc in fan.max_cones:
            if not any(mc.index_set <= c.index_set for c in cover):
                raise CechError(f"cover misses maximal cone {mc}")
        if len(cover) > MAX_COVER_DEFAULT:
            raise CechError(
                f"cover has {len(cover)} cones, more than the limit "
                f"MAX_COVER_DEFAULT = {MAX_COVER_DEFAULT}; use a cover of at most "
                f"{MAX_COVER_DEFAULT} cones")
        self.cover = cover
        self._tables: dict = {}

    # -- combinatorics ------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.cover)

    def simplices(self, p: int) -> list[Simplex]:
        """The p-simplices in lex order, computed once: callers must not mutate the list."""
        if p < 0 or p >= self.size:
            return []
        return self.table(("simplices", p), lambda: list(itertools.combinations(range(self.size), p + 1)))

    def cone_of(self, tau: Simplex) -> Cone:
        """The intersection of the cover cones at tau: by the fan condition,
        the cone on their common rays."""
        return self.table(("cone", tau), lambda: self.fan.cone(frozenset.intersection(
            *(self.cover[i].index_set for i in tau))))

    # -- local bases ----------------------------------------------------

    def _ann_basis(self, cone: Cone) -> list[Vector]:
        return self.table(("ann", cone), lambda: kernel_basis(self.fan.ray_matrix(cone)))

    def const_matrix(self, cone: Cone, k: int) -> RationalMatrix:
        """Basis of the k-wedges (k >= 0) of the cone annihilator as columns,
        in ambient wedge coordinates (rows: k-subsets of 1..n, lex).

        Column C, a k-subset of ``_ann_basis`` in lex order, is column
        C[:-1] of the cached (k - 1)-wedges wedged with the last vector by
        ``wedge_merge``; so entry (R, C) is the minor of the annihilator
        basis on rows R and columns C.
        """
        def build():
            if k == 0:
                return RationalMatrix(1, 1, {(0, 0): 1})
            ann = self._ann_basis(cone)
            below = ext_subsets(self.fan.rank, k - 1)
            subsets = list(itertools.combinations(range(len(ann)), k - 1))
            prev = {}  # (k - 1)-subset of ann -> its wedge as {ambient (k - 1)-subset: value}
            for (r, c), v in self.const_matrix(cone, k - 1).entries.items():
                prev.setdefault(subsets[c], {})[below[r]] = v
            row = {s: i for i, s in enumerate(ext_subsets(self.fan.rank, k))}
            ent: dict[tuple[int, int], int | Fraction] = {}
            for j, c in enumerate(itertools.combinations(range(len(ann)), k)):
                for s, v in prev.get(c[:-1], {}).items():
                    for i, a in enumerate(ann[c[-1]], 1):
                        merged = a and wedge_merge(s, (i,))
                        if merged:
                            at = (row[merged[1]], j)
                            ent[at] = ent.get(at, 0) + merged[0] * v * a
            return RationalMatrix(len(row), math.comb(len(ann), k), ent)

        return self.table(("const", cone, k), build)

    def _const_solver(self, cone: Cone, k: int) -> LinearSolver:
        return self.table(("constsolver", cone, k), lambda: LinearSolver(self.const_matrix(cone, k)))

    def slot_layout(self, tag: str, p: int, k: int, m: int) -> tuple[int, dict[Simplex, int]]:
        """Total dimension and per-simplex offsets of one Cech slot.

        A forms slot is the twisted slot (k, m) with C^p_m, the
        ``cone_monomial_basis`` of the p-simplex cones one after another, in
        place of B(m): (wedge a, simplex tau) starts at a * |C^p_m| plus the
        offset of tau in C^p_m.  A const slot is the columns of each simplex's
        ``const_matrix`` in turn, counted as C(n - dim, k), since a smooth
        cone's rays are independent.
        """
        def build():
            if tag == TAG_FORMS and k:
                total, offsets = self.slot_layout(tag, p, 0, m)
                return math.comb(self.fan.rank, k) * total, offsets
            if tag == TAG_FORMS:
                size = lambda cone: len(cone_monomial_basis(self.fan, cone, m))
            elif tag == TAG_CONST:
                size = lambda cone: math.comb(self.fan.rank - cone.dim, k)
            else:
                raise CechError(f"unknown tag {tag!r}")
            offsets = {}
            total = 0
            for tau in self.simplices(p):
                offsets[tau] = total
                total += size(self.cone_of(tau))
            return total, offsets

        return self.table(("layout", tag, p, k, m), build)

    # -- matrices --------------------------------------------------------

    def _restriction(self, tag: str, src: Cone | None, dst: Cone, q: int) -> RationalMatrix:
        """Restriction of the coefficient system from src to its face dst, in
        the local bases, built once per pair of cones.

        For forms q is m: the 0/1 matrix that keeps the monomials of src's
        ``cone_monomial_basis`` (the global ``sr_basis`` for src None) that
        dst's basis holds and kills the others.  For const q is k: the
        annihilator wedges of src solved in dst's ``const_matrix``.
        """
        def build():
            if tag == TAG_CONST:
                return self._const_solver(dst, q).solve(self.const_matrix(src, q))
            src_basis = sr_basis(self.fan, q) if src is None else cone_monomial_basis(self.fan, src, q)
            # dst's basis holds every monomial of degree q supported on dst
            index = {mono: i for i, mono in enumerate(cone_monomial_basis(self.fan, dst, q))}
            return RationalMatrix(len(index), len(src_basis), {
                (i, j): 1 for j, i in enumerate(map(index.get, src_basis)) if i is not None})

        src_key = src.ray_indices if src is not None else None
        return self.table(("restriction", tag, src_key, dst.ray_indices, q), build)

    def delta_matrix(self, tag: str, p: int, k: int, m: int) -> RationalMatrix:
        """Horizontal differential from Cech degree p to p + 1: each (tau, face)
        pair places sign * ``_restriction`` from the face's cone to tau's at
        the two simplices' offsets, at k = 0 (q = m) for forms and at every k
        (q = k) for const.  The forms delta keeps the wedge: at k > 0, C(n, k)
        diagonal copies of k = 0's."""
        def build():
            if tag == TAG_FORMS and k:
                base = self.delta_matrix(tag, p, 0, m)
                wedges = math.comb(self.fan.rank, k)
                return linalg.block_matrix([base.rows] * wedges, [base.cols] * wedges,
                                           {(a, a): base for a in range(wedges)})
            faces = self.table(("faces", p), lambda: [
                (tau, tau[:j] + tau[j + 1:], -1 if j % 2 else 1, self.cone_of(tau),
                 self.cone_of(tau[:j] + tau[j + 1:]))
                for tau in self.simplices(p + 1) for j in range(len(tau))])
            src_dim, src_off = self.slot_layout(tag, p, k, m)
            dst_dim, dst_off = self.slot_layout(tag, p + 1, k, m)
            q = m if tag == TAG_FORMS else k
            ent = {}
            for tau, face, sign, dst, src in faces:
                r, c = dst_off[tau], src_off[face]
                ent.update(((r + i, c + j), sign * v)
                           for (i, j), v in self._restriction(tag, src, dst, q).entries.items())
            return RationalMatrix._trusted(dst_dim, src_dim, ent)

        return self.table(("delta", tag, p, k, m), build)

    def twisted(self) -> TwistedComplex:
        """The fan's twisted complex in the identity frame, built once per cover."""
        return self.table(("twisted",), lambda: build_twisted(self.fan))

    def augmentation_matrix(self, m: int) -> RationalMatrix:
        """Restriction of global functions to the degree-0 Cech slot: on each
        vertex cone, ``_restriction`` from the global ring."""
        dst_dim, dst_off = self.slot_layout(TAG_FORMS, 0, 0, m)
        ent = {(dst_off[tau] + i, j): v for tau in self.simplices(0) for (i, j), v in
               self._restriction(TAG_FORMS, None, self.cone_of(tau), m).entries.items()}
        return RationalMatrix._trusted(dst_dim, len(sr_basis(self.fan, m)), ent)

    # -- total complexes ---------------------------------------------------

    def total_blocks(self, tag: str, t: int) -> list[tuple[int, int, int]]:
        """Slots (p, k, m) of total degree t = p + k + m, ordered by p then k.

        Forms slots are p times the twisted slots (``graded_slots``); const
        slots have m = 0.
        """
        out = []
        for p in range(min(self.size - 1, t) + 1):
            if tag == TAG_FORMS:
                out += [(p, k, m) for k, m in graded_slots(self.fan.rank, t - p)]
            elif t - p <= self.fan.rank:
                out.append((p, t - p, 0))
        return out

    def _sizes(self, tag: str, t: int) -> dict[tuple[int, int, int], int]:
        """The dimension of each slot of the total space (tag, t), in
        ``total_blocks`` order: the total space is its slots one after another."""
        return {b: self.slot_layout(tag, *b)[0] for b in self.total_blocks(tag, t)}

    def _total(self, src_tag: str, dst_tag: str, t_src: int, t_dst: int, maps) -> RationalMatrix:
        """``total_matrix`` between the total spaces (src_tag, t_src) and (dst_tag, t_dst)."""
        return total_matrix(self._sizes(src_tag, t_src), self._sizes(dst_tag, t_dst), maps)

    def const_total_matrix(self, t: int) -> RationalMatrix:
        """Total differential delta on the const double complex (zero vertical)."""
        maps = lambda p, k, m: [((p + 1, k, m), self.delta_matrix(TAG_CONST, p, k, m))]
        return self.table(("consttotal", t), lambda: self._total(TAG_CONST, TAG_CONST, t, t + 1, maps))

    def forms_total_matrix(self, t: int) -> RationalMatrix:
        """Total differential delta + (-1)^p vertical on the forms double complex.

        The delta of a slot is the cached ``delta_matrix``; its vertical map
        is ``koszul_block`` over the slot's simplex cones, which shares the
        slot's layout, of the identity-frame forms, negated at odd p.
        """
        def maps(p, k, m):
            yield (p + 1, k, m), self.delta_matrix(TAG_FORMS, p, k, m)
            if k:
                forms = [f.scale(-1) if p % 2 else f for f in self.twisted().linear_forms]
                cones = tuple(map(self.cone_of, self.simplices(p)))
                yield (p, k - 1, m + 2), koszul_block(self.fan, forms, k, m, cones)

        return self.table(("formstotal", t), lambda: self._total(TAG_FORMS, TAG_FORMS, t, t + 1, maps))

    def inclusion_matrix(self, t: int) -> RationalMatrix:
        """Chain map from the const total space into the forms total space:
        entry (wedge a, column c) of the ``const_matrix`` of the i-th
        p-simplex goes to forms row (a, i), since every cone's forms basis at
        m = 0 is the monomial 1, and to the simplex's const column c."""
        def maps(p, k, m):
            taus = self.simplices(p)
            cols, offsets = self.slot_layout(TAG_CONST, p, k, m)
            yield (p, k, m), RationalMatrix._trusted(math.comb(self.fan.rank, k) * len(taus), cols, {
                (a * len(taus) + i, offsets[tau] + c): v for i, tau in enumerate(taus)
                for (a, c), v in self.const_matrix(self.cone_of(tau), k).entries.items()})

        return self.table(("inclusion", t), lambda: self._total(TAG_CONST, TAG_FORMS, t, t, maps))


# -- exactness -----------------------------------------------------------------


class ExactnessReport:
    """Per-degree exactness of the augmented complex of a cover."""

    __slots__ = ("m_max", "entries", "augmentation", "exact")

    def __init__(self, m_max: int, entries: dict[tuple[int, int], dict],
                 augmentation: dict[int, dict], exact: bool):
        self.m_max = m_max
        self.entries = entries                # (m, p) -> dims/ranks/verdict
        self.augmentation = augmentation      # m -> injectivity and image data
        self.exact = exact

    def degree_exact(self, m: int) -> bool:
        """Exactness of the slice of polynomial degree m."""
        return all(e["exact"] for (mm, _), e in self.entries.items() if mm == m)


def default_m_max(fan: Fan) -> int:
    return default_t_max(fan) + 2  # the exactness check's window: 2n + 4


def verify_exactness(cs: CoverSimplex, m_max: int) -> ExactnessReport:
    """Check degreewise exactness of 0 -> global -> C^0 -> C^1 -> ...

    The coefficients are the polynomial functions, the forms of exterior
    degree 0.  The forms of exterior degree k follow: their delta is
    C(n, k) diagonal copies of the delta at k = 0, and so is their
    augmentation.  Works in each polynomial degree m <= m_max separately
    (odd slices are zero).  A slot is exact when the incoming map
    composes to zero with the outgoing one and their ranks add up to its
    dimension.  Failures are recorded, not raised.
    """
    entries: dict[tuple[int, int], dict] = {}
    augmentation: dict[int, dict] = {}
    exact = True
    s = cs.size
    for m in range(m_max + 1):
        aug = cs.augmentation_matrix(m)
        deltas = [cs.delta_matrix(TAG_FORMS, p, 0, m) for p in range(s)]
        dims = [cs.slot_layout(TAG_FORMS, p, 0, m)[0] for p in range(s)]
        ranks = [linalg.rank(d) for d in deltas]
        comp_zero = (deltas[0] @ aug).is_zero()
        rank_aug = linalg.rank(aug)
        global_dim = aug.cols
        inj = rank_aug == global_dim
        joint0 = comp_zero and rank_aug == dims[0] - ranks[0]
        augmentation[m] = {
            "global_dim": global_dim, "rank": rank_aug,
            "injective": inj, "kernel_matches_image": joint0,
        }
        ok_m = inj and joint0
        for p in range(1, s):
            # the ranks add up to dims[p] on an exact slot, but prove it only when delta delta = 0
            ok_p = ((deltas[p] @ deltas[p - 1]).is_zero()
                    and ranks[p - 1] + ranks[p] == dims[p])
            entries[(m, p)] = {
                "dim": dims[p], "rank_in": ranks[p - 1],
                "rank_out": ranks[p], "exact": ok_p,
            }
            ok_m = ok_m and ok_p
        entries[(m, 0)] = {"dim": dims[0], "rank_in": rank_aug,
                           "rank_out": ranks[0], "exact": joint0 and inj}
        exact = exact and ok_m
    return ExactnessReport(m_max, entries, augmentation, exact)


# -- total cohomology and the quasi-isomorphism checks ----------------------------


def constant_total_cohomology(cs: CoverSimplex, t_max: int | None = None) -> TotalCohomology:
    """Total cohomology of the constant-forms double complex (zero vertical).

    This is the combinatorial oracle for the cohomology of the toric
    manifold of the fan.
    """
    if t_max is None:
        t_max = default_t_max(cs.fan)
    return total_cohomology(t_max, cs.const_total_matrix)


def forms_total_cohomology(cs: CoverSimplex, t_max: int | None = None) -> TotalCohomology:
    """Total cohomology of the forms double complex with the twisted vertical."""
    if t_max is None:
        t_max = default_t_max(cs.fan)
    return total_cohomology(t_max, cs.forms_total_matrix)


class QuasiIsoReport:
    __slots__ = ("t_max", "dims_twisted", "dims_forms_total", "dims_const_total",
                 "chain_map_ok", "induced_iso_ok", "failed_at")

    def __init__(self, t_max: int, dims_twisted: tuple[int, ...],
                 dims_forms_total: tuple[int, ...], dims_const_total: tuple[int, ...],
                 chain_map_ok: bool, induced_iso_ok: bool, failed_at: int | None = None):
        self.t_max = t_max
        self.dims_twisted = dims_twisted
        self.dims_forms_total = dims_forms_total
        self.dims_const_total = dims_const_total
        self.chain_map_ok = chain_map_ok
        self.induced_iso_ok = induced_iso_ok
        self.failed_at = failed_at  # the t at which the chain-map or induced-iso check stopped

    @property
    def augmentation_ok(self) -> bool:
        return self.dims_twisted == self.dims_forms_total

    @property
    def agree(self) -> bool:
        return (self.chain_map_ok and self.induced_iso_ok and self.augmentation_ok
                and self.dims_forms_total == self.dims_const_total)


def verify_quasi_iso(cs: CoverSimplex, t_max: int | None = None) -> QuasiIsoReport:
    """Certify that the three cohomology pipelines agree up to t_max.

    Checks that the inclusion of constant forms is a chain map into the
    forms double complex, that it induces isomorphisms on total
    cohomology (equal dimensions and full-rank reduced images; checked
    only for a chain map, and false otherwise), and that the
    twisted complex of the global ring has the same dimensions as the
    forms total complex.  The first degree at which the chain-map or
    induced-iso check fails is kept as ``failed_at``.
    """
    if t_max is None:
        t_max = default_t_max(cs.fan)
    const = constant_total_cohomology(cs, t_max)
    forms = forms_total_cohomology(cs, t_max)
    twisted_dims = lg_cohomology(cs.twisted(), t_max).dims

    def chain_map_at(t: int) -> bool:
        return (cs.forms_total_matrix(t) @ cs.inclusion_matrix(t)
                == cs.inclusion_matrix(t + 1) @ cs.const_total_matrix(t))

    def induces_iso_at(t: int) -> bool:
        cslot, fslot = const.slots[t], forms.slots[t]
        return cslot.dim == fslot.dim and (cslot.dim == 0 or linalg.rank(
            fslot.reduce(cs.inclusion_matrix(t) @ cslot.representatives)) == cslot.dim)

    failed_at = next((t for t in range(t_max + 1) if not chain_map_at(t)), None)
    chain_ok = failed_at is None
    # only a chain map sends the representatives to cocycles
    if chain_ok:
        failed_at = next((t for t in range(t_max + 1) if not induces_iso_at(t)), None)
    return QuasiIsoReport(t_max, twisted_dims, forms.dims, const.dims,
                          chain_ok, failed_at is None, failed_at)


# -- cup product --------------------------------------------------------------------


def cup(cs: CoverSimplex, tag: str, t1: int, x: RationalMatrix, t2: int,
        y: RationalMatrix) -> RationalMatrix:
    """Front-face/back-face cup product of total-complex columns, column by column.

    x has the rows of the total space (tag, t1) and y those of (tag, t2),
    laid out slot after slot as ``_sizes`` gives them; column j of
    the result, in (tag, t1 + t2), is the product of column j of x and
    column j of y.  On a (p1 + p2)-simplex tau, slot (p1, k1, m1) of x is
    read on the front face tau[:p1 + 1] and slot (p2, k2, m2) of y on the
    back face tau[p1:], both as forms on the cone of tau; they multiply by
    ``lg_multiply`` with the twist (-1)^(k1 * p2).  Const columns are first
    carried into the forms total space by ``inclusion_matrix`` (ambient
    wedge coordinates, the forms basis at m = 0), and each product is
    solved back into the const basis of tau by ``_const_solver``.  A
    product whose slot does not exist (p at least the cover size, k above
    the rank) vanishes.  A wrong row count, or unequal column counts,
    raise ``CechError``.
    """
    if (x.rows, y.rows, x.cols) != (sum(cs._sizes(tag, t1).values()),
                                    sum(cs._sizes(tag, t2).values()), y.cols):
        raise CechError(f"no cup of a {x.rows} x {x.cols} and a {y.rows} x {y.cols} matrix "
                        f"on the total spaces ({tag}, {t1}) and ({tag}, {t2})")
    if tag == TAG_CONST:
        x, y = cs.inclusion_matrix(t1) @ x, cs.inclusion_matrix(t2) @ y
    sizes = cs._sizes(tag, t1 + t2)
    offsets = dict(zip(sizes, itertools.accumulate(sizes.values(), initial=0)))
    acc = {}  # (slot, tau) -> {column: the product on the cone of tau}
    xs, ys = _face_values(cs, t1, x), _face_values(cs, t2, y)
    for (p1, k1, m1), front in xs.items():
        for (p2, k2, m2), back in ys.items():
            slot = (p1 + p2, k1 + k2, m1 + m2)
            if slot not in offsets:
                continue
            twist = -1 if k1 * p2 % 2 else 1
            for tau in cs.simplices(p1 + p2):
                u, v = front[tau[:p1 + 1]], back[tau[p1:]]
                if not (u and v):
                    continue
                keep = cs.cone_of(tau).index_set
                out = acc.setdefault((slot, tau), {})
                for j in u.keys() & v.keys():
                    # restriction to tau keeps the terms whose monomial lives on its cone
                    prod = lg_multiply(cs.fan, {b: c for b, c in u[j].items() if b[0].support <= keep},
                                       {b: c for b, c in v[j].items() if b[0].support <= keep})
                    col = out.setdefault(j, {})
                    for b, c in prod.items():
                        col[b] = col.get(b, 0) + twist * c
    ent = {}
    for ((p, k, m), tau), cols in acc.items():
        wedges = {s: i for i, s in enumerate(ext_subsets(cs.fan.rank, k))}
        size, local_offsets = cs.slot_layout(tag, p, k, m)
        off = offsets[(p, k, m)] + local_offsets[tau]
        if tag == TAG_CONST:  # at m = 0 a form is its wedge coordinates; solve them in tau's const basis
            local = cs._const_solver(cs.cone_of(tau), k).solve(RationalMatrix(len(wedges), x.cols, {
                (wedges[s], j): c for j, col in cols.items() for (_, s), c in col.items()}))
            ent.update(((off + i, j), c) for (i, j), c in local.entries.items())
        else:  # wedge a starts a slot sizes at k = 0 into the slot
            monos = {b: i for i, b in enumerate(cone_monomial_basis(cs.fan, cs.cone_of(tau), m))}
            ent.update(((off + wedges[s] * size // len(wedges) + monos[b], j), c)
                       for j, col in cols.items() for (b, s), c in col.items())
    return RationalMatrix(sum(sizes.values()), x.cols, ent)


def _face_values(cs: CoverSimplex, t: int,
                 a: RationalMatrix) -> dict[tuple[int, int, int], dict[Simplex, dict[int, LGElement]]]:
    """The columns of a, on the forms total space of degree t: per slot, per
    simplex and per column, the local value as a form (monomial, wedge) -> coefficient."""
    by_row = {}
    for (i, j), v in a.entries.items():
        by_row.setdefault(i, []).append((j, v))
    out = {}
    row = 0
    for p, k, m in cs.total_blocks(TAG_FORMS, t):
        size, offsets = cs.slot_layout(TAG_FORMS, p, k, m)
        wedges = ext_subsets(cs.fan.rank, k)
        out[(p, k, m)] = values = {}
        for face in cs.simplices(p):
            monos = cone_monomial_basis(cs.fan, cs.cone_of(face), m)
            values[face] = cols = {}
            for w, s in enumerate(wedges):
                # wedge w starts w slot sizes at k = 0 into the slot
                for i, b in enumerate(monos, row + w * size // len(wedges) + offsets[face]):
                    for j, v in by_row.get(i, ()):
                        cols.setdefault(j, {})[(b, s)] = v
        row += size
    return out
