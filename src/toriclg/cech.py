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

The module provides the horizontal differential, planned once per
(tag, Cech degree, polynomial or exterior degree), the exactness check of
the augmented complex in every degree, total complexes written by one
assembler straight from the cached delta and local blocks,
quasi-isomorphism verification between the three pipelines, and the
front/back-face cup product.

Sign conventions, fixed here once:
  * horizontal delta removes vertices with alternating signs;
  * the total differential is D = delta + (-1)^p * vertical;
  * cup products carry the twist (-1)^(value degree of the left factor
    times Cech degree of the right factor).
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
    cohomology_at,
    kernel_basis,
)
from .srring import SRPolynomial, cone_monomial_basis, restrict, sr_basis
from .twisted import (
    LGElement,
    TotalCohomology,
    build_twisted,
    default_t_max,
    ext_subsets,
    koszul_block,
    lg_cohomology,
    lg_multiply,
    wedge_merge,
)

TAG_FORMS = "forms"
TAG_CONST = "const"

Simplex = tuple[int, ...]  # sorted 0-based cover positions

# Largest cover; the complexes enumerate its 2^size - 1 simplices.  verify on the
# 7-, 8- and 9-ray surfaces (covered by their 7, 8, 9 maximal cones) takes 0.14,
# 0.14 and 0.23 s and 17, 19 and 24 MB; from 12 cones (1.4 s, 114 MB) each cone
# about doubles both, and 14 take 5.9 s and 416 MB, past the 5 s / 250 MB of the
# CLI's MAX_DEGREE (median of 5 runs, peak RSS of the child; 2-core VM, Python 3.11.7).
MAX_COVER_DEFAULT = 8


class CechError(FanError):
    pass


class CechCochain:
    """Homogeneous cochain: one coordinate vector per p-simplex.

    ``k`` is the exterior degree (0 for functions), ``m`` the doubled
    polynomial degree (0 for const).  Functions carry the forms tag.
    """

    __slots__ = ("tag", "p", "k", "m", "components")

    def __init__(self, tag: str, p: int, k: int, m: int, components: dict[Simplex, Vector]):
        self.tag = tag
        self.p = p
        self.k = k
        self.m = m
        self.components = components


class CoverSimplex:
    """A cone cover of the fan support and its full simplex.

    The cover must contain every maximal cone (a cone cannot be covered
    by proper faces), and may repeat intersections; nothing assumes the
    simplex-to-cone map is injective.  Vertex order is the input order.
    Slot bases and matrices are cached write-once, so shared read access
    is safe.
    """

    fan: Fan
    cover: tuple[Cone, ...]

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
        self._cache = {}

    # -- combinatorics ------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.cover)

    def simplices(self, p: int) -> list[Simplex]:
        """The p-simplices in lex order, computed once: callers must not mutate the list."""
        if p < 0 or p >= self.size:
            return []
        key = ("simplices", p)
        if key not in self._cache:
            self._cache[key] = list(itertools.combinations(range(self.size), p + 1))
        return self._cache[key]

    def cone_of(self, tau: Simplex) -> Cone:
        """The intersection of the cover cones at tau: by the fan condition,
        the cone on their common rays."""
        key = ("cone", tau)
        if key not in self._cache:
            self._cache[key] = self.fan.cone(frozenset.intersection(
                *(self.cover[i].index_set for i in tau)))
        return self._cache[key]

    # -- local bases ----------------------------------------------------

    def _ann_basis(self, cone: Cone) -> list[Vector]:
        key = ("ann", cone)
        if key not in self._cache:
            self._cache[key] = kernel_basis(self.fan.ray_matrix(cone))
        return self._cache[key]

    def const_matrix(self, cone: Cone, k: int) -> RationalMatrix:
        """Basis of the k-wedges (k >= 0) of the cone annihilator as columns,
        in ambient wedge coordinates (rows: k-subsets of 1..n, lex).

        Column C, a k-subset of ``_ann_basis`` in lex order, is column
        C[:-1] of the cached (k - 1)-wedges wedged with the last vector by
        ``wedge_merge``; so entry (R, C) is the minor of the annihilator
        basis on rows R and columns C.
        """
        key = ("const", cone, k)
        if key not in self._cache:
            if k == 0:
                self._cache[key] = RationalMatrix(1, 1, {(0, 0): 1})
                return self._cache[key]
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
            self._cache[key] = RationalMatrix(len(row), math.comb(len(ann), k), ent)
        return self._cache[key]

    def _const_solver(self, cone: Cone, k: int) -> LinearSolver:
        key = ("constsolver", cone, k)
        if key not in self._cache:
            self._cache[key] = LinearSolver(self.const_matrix(cone, k))
        return self._cache[key]

    def local_basis(self, tag: str, tau: Simplex, k: int, m: int) -> list:
        cone = self.cone_of(tau)
        if tag == TAG_FORMS:
            monos = cone_monomial_basis(self.fan, cone, m)
            return [(mono, s) for s in ext_subsets(self.fan.rank, k) for mono in monos]
        if tag == TAG_CONST:
            return list(range(self.const_matrix(cone, k).cols))
        raise CechError(f"unknown tag {tag!r}")

    def slot_layout(self, tag: str, p: int, k: int, m: int) -> tuple[int, dict[Simplex, int]]:
        """Total dimension and per-simplex offsets of one Cech slot.

        A local space has the size of ``local_basis``, counted without
        building it.
        """
        key = ("layout", tag, p, k, m)
        if key not in self._cache:
            if tag == TAG_FORMS and k:
                # every local size is C(n, k) times its size at k = 0
                wedges = len(ext_subsets(self.fan.rank, k))
                total, offsets = self.slot_layout(tag, p, 0, m)
                self._cache[key] = (wedges * total, {tau: wedges * off for tau, off in offsets.items()})
                return self._cache[key]
            if tag == TAG_FORMS:
                size = lambda cone: len(cone_monomial_basis(self.fan, cone, m))
            elif tag == TAG_CONST:
                size = lambda cone: self.const_matrix(cone, k).cols
            else:
                raise CechError(f"unknown tag {tag!r}")
            offsets = {}
            total = 0
            for tau in self.simplices(p):
                offsets[tau] = total
                total += size(self.cone_of(tau))
            self._cache[key] = (total, offsets)
        return self._cache[key]

    # -- restriction blocks ---------------------------------------------

    def _keep_pairs(self, src: Cone | None, dst: Cone, m: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
        """|B_src(m)|, |B_dst(m)| and the (source, target) index pairs of the
        monomials of degree m on src that restriction to dst keeps (the
        others it kills); B is ``cone_monomial_basis``, or for src None the
        global ``sr_basis``."""
        key = ("keep", src.ray_indices if src is not None else None, dst.ray_indices, m)
        if key not in self._cache:
            src_basis = sr_basis(self.fan, m) if src is None else cone_monomial_basis(self.fan, src, m)
            dst_basis = cone_monomial_basis(self.fan, dst, m)
            # dst's basis holds every monomial of degree m supported on dst
            index = {mono: i for i, mono in enumerate(dst_basis)}
            pairs = tuple((j, i) for j, i in enumerate(map(index.get, src_basis)) if i is not None)
            self._cache[key] = (len(src_basis), len(dst_basis), pairs)
        return self._cache[key]

    def _const_restriction(self, src: Cone, dst: Cone, k: int) -> RationalMatrix:
        """Inclusion of annihilator wedges, written in the bases."""
        key = ("constres", src.ray_indices, dst.ray_indices, k)
        if key not in self._cache:
            self._cache[key] = self._const_solver(dst, k).solve(self.const_matrix(src, k))
        return self._cache[key]

    # -- matrices --------------------------------------------------------

    def _delta_plan(self, tag: str, p: int, q: int) -> list[tuple[int, int, int, object]]:
        """The delta from Cech degree p to p + 1, planned once per (tag, p, q).

        One (target offset, source offset, sign, block) per (tau, face) pair:
        for forms q is m, the block is ``_keep_pairs`` and the offsets are
        those at k = 0; for const q is k and the block is
        ``_const_restriction``.  Both cache a block per pair of cones, which
        most (tau, face) pairs repeat.  A forms local size at (k, m) is C(n, k)
        times its size at (0, m), so one forms plan serves every k.
        """
        key = ("plan", tag, p, q)
        if key not in self._cache:
            faces = self._cache.get(("faces", p))
            if faces is None:
                faces = self._cache[("faces", p)] = [
                    (tau, tau[:j] + tau[j + 1:], -1 if j % 2 else 1, self.cone_of(tau),
                     self.cone_of(tau[:j] + tau[j + 1:]))
                    for tau in self.simplices(p + 1) for j in range(len(tau))]
            k, m = (0, q) if tag == TAG_FORMS else (q, 0)
            src_off = self.slot_layout(tag, p, k, m)[1]
            dst_off = self.slot_layout(tag, p + 1, k, m)[1]
            self._cache[key] = [
                (dst_off[tau], src_off[face], sign, self._keep_pairs(src, dst, m)
                 if tag == TAG_FORMS else self._const_restriction(src, dst, k))
                for tau, face, sign, dst, src in faces]
        return self._cache[key]

    def delta_matrix(self, tag: str, p: int, k: int, m: int) -> RationalMatrix:
        """Horizontal differential from Cech degree p to p + 1.

        Written from the plan of (tag, p, m) for forms and of (tag, p, k)
        for const (``_delta_plan``); the (tau, face) blocks are disjoint, so
        each entry is set once.
        """
        key = ("delta", tag, p, k, m)
        if key not in self._cache:
            ent: dict[tuple[int, int], int | Fraction] = {}
            if tag == TAG_FORMS:
                # identity on the wedge part, keep-or-kill on monomials
                wedges = len(ext_subsets(self.fan.rank, k))
                for r, c, sign, (n_src, n_dst, pairs) in self._delta_plan(tag, p, m):
                    r, c = wedges * r, wedges * c
                    for _ in range(wedges):
                        for j, i in pairs:
                            ent[(r + i, c + j)] = sign
                        r += n_dst
                        c += n_src
            else:
                for r, c, sign, blk in self._delta_plan(tag, p, k):
                    ent.update(((r + i, c + j), sign * v) for (i, j), v in blk.entries.items())
            self._cache[key] = RationalMatrix(self.slot_layout(tag, p + 1, k, m)[0],
                                              self.slot_layout(tag, p, k, m)[0], ent)
        return self._cache[key]

    def global_forms(self) -> tuple[SRPolynomial, ...]:
        key = ("globalforms",)
        if key not in self._cache:
            self._cache[key] = build_twisted(self.fan).linear_forms
        return self._cache[key]

    def _local_vertical(self, cone: Cone, k: int, m: int) -> RationalMatrix:
        """Twisted vertical differential on the forms of one cone, from (k, m) to
        (k - 1, m + 2), with the coefficient forms restricted to the cone."""
        key = ("localvert", cone, k, m)
        if key not in self._cache:
            fkey = ("forms", cone)
            if fkey not in self._cache:
                self._cache[fkey] = [restrict(f, cone) for f in self.global_forms()]
            self._cache[key] = koszul_block(self.fan, self._cache[fkey], k, m, cone)
        return self._cache[key]

    def augmentation_matrix(self, m: int) -> RationalMatrix:
        """Restriction of global functions to the degree-0 Cech slot.

        Built by index: on each vertex cone, the global monomial j of
        ``sr_basis`` that the cone keeps goes to its row i of
        ``cone_monomial_basis`` (``_keep_pairs``).
        """
        dst_dim, dst_off = self.slot_layout(TAG_FORMS, 0, 0, m)
        ent = {}
        for tau in self.simplices(0):
            for j, i in self._keep_pairs(None, self.cone_of(tau), m)[2]:
                ent[(dst_off[tau] + i, j)] = 1
        return RationalMatrix(dst_dim, len(sr_basis(self.fan, m)), ent)

    # -- total complexes ---------------------------------------------------

    def total_blocks(self, tag: str, t: int) -> list[tuple[int, int, int]]:
        """Slots (p, k, m) of total degree t = p + k + m, ordered by p then k.

        Forms slots have even m; const slots have m = 0.
        """
        out = []
        for p in range(0, min(self.size - 1, t) + 1):
            for k in range(0, min(self.fan.rank, t - p) + 1):
                m = t - p - k
                if m == 0 or (tag == TAG_FORMS and m % 2 == 0):
                    out.append((p, k, m))
        return out

    def _assemble(self, src_tag: str, dst_tag: str, t_src: int, t_dst: int,
                  arrows) -> RationalMatrix:
        """Matrix between the total spaces (src_tag, t_src) and (dst_tag, t_dst).

        ``arrows(p, k, m)`` yields (target slot, sign, block) for one source
        slot: a matrix between the two slots, or a function of a cone whose
        values go on the diagonal, one block per p-simplex.  Each block is
        checked against its slot (the diagonal ones must tile it in simplex
        order) and its entries are copied once, times sign, so the result is
        not validated again.  A missing target slot takes no block.
        """
        src = [(slot, list(arrows(*slot))) for slot in self.total_blocks(src_tag, t_src)]
        row_off = {}
        rows = 0
        for b in self.total_blocks(dst_tag, t_dst):
            row_off[b] = rows
            rows += self.slot_layout(dst_tag, *b)[0]
        ent: dict[tuple[int, int], int | Fraction] = {}
        cols = 0
        for (p, k, m), out in src:
            width, src_off = self.slot_layout(src_tag, p, k, m)
            for target, sign, block in out:
                if target not in row_off:
                    continue
                height, dst_off = self.slot_layout(dst_tag, *target)
                if isinstance(block, RationalMatrix):
                    pieces = [(0, 0, block)]
                else:
                    pieces = [(dst_off[tau], src_off[tau], block(self.cone_of(tau)))
                              for tau in self.simplices(p)]
                r_end = c_end = 0
                for r, c, blk in pieces:
                    if (r, c) != (r_end, c_end):
                        raise CechError(f"a block of {target} does not fit its slot")
                    r_end, c_end = r + blk.rows, c + blk.cols
                    r, c = r + row_off[target], c + cols
                    ent.update(((r + i, c + j), sign * v) for (i, j), v in blk.entries.items())
                if (r_end, c_end) != (height, width):
                    raise CechError(f"the blocks of {target} do not fill their slot")
            cols += width
        return RationalMatrix._trusted(rows, cols, ent)

    def const_total_matrix(self, t: int) -> RationalMatrix:
        """Total differential delta on the const double complex (zero vertical)."""
        key = ("consttotal", t)
        if key not in self._cache:
            def arrows(p, k, m):
                yield (p + 1, k, m), 1, self.delta_matrix(TAG_CONST, p, k, m)

            self._cache[key] = self._assemble(TAG_CONST, TAG_CONST, t, t + 1, arrows)
        return self._cache[key]

    def forms_total_matrix(self, t: int) -> RationalMatrix:
        """Total differential delta + (-1)^p vertical on the forms double complex.

        The delta entries are copied from the cached ``delta_matrix``, and
        the vertical ones from the cached local Koszul blocks of the simplex
        cones (``_local_vertical``), each at its simplex's offsets.
        """
        key = ("formstotal", t)
        if key not in self._cache:
            def arrows(p, k, m):
                yield (p + 1, k, m), 1, self.delta_matrix(TAG_FORMS, p, k, m)
                if k >= 1:
                    yield (p, k - 1, m + 2), (-1) ** p, lambda cone: self._local_vertical(cone, k, m)

            self._cache[key] = self._assemble(TAG_FORMS, TAG_FORMS, t, t + 1, arrows)
        return self._cache[key]

    def inclusion_matrix(self, t: int) -> RationalMatrix:
        """Chain map from the const total space into the forms total space."""
        key = ("inclusion", t)
        if key not in self._cache:
            # at m = 0 the local forms basis is exactly the ambient wedge basis
            def arrows(p, k, m):
                yield (p, k, m), 1, lambda cone: self.const_matrix(cone, k)

            self._cache[key] = self._assemble(TAG_CONST, TAG_FORMS, t, t, arrows)
        return self._cache[key]

    # -- cochain plumbing ---------------------------------------------------

    def zero_cochain(self, tag: str, p: int, k: int, m: int) -> CechCochain:
        comps = {tau: linalg.zero_vector(len(self.local_basis(tag, tau, k, m)))
                 for tau in self.simplices(p)}
        return CechCochain(tag, p, k, m, comps)


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


def _total_cohomology(t_max: int, matrix_fn) -> TotalCohomology:
    slots = {}
    for t in range(t_max + 1):
        d_in = matrix_fn(t - 1) if t >= 1 else RationalMatrix.zeros(matrix_fn(0).cols, 0)
        slots[t] = cohomology_at(d_in, matrix_fn(t))
    return TotalCohomology(t_max, slots)


def constant_total_cohomology(cs: CoverSimplex, t_max: int | None = None) -> TotalCohomology:
    """Total cohomology of the constant-forms double complex (zero vertical).

    This is the combinatorial oracle for the cohomology of the toric
    manifold of the fan.
    """
    if t_max is None:
        t_max = default_t_max(cs.fan)
    return _total_cohomology(t_max, cs.const_total_matrix)


def forms_total_cohomology(cs: CoverSimplex, t_max: int | None = None) -> TotalCohomology:
    """Total cohomology of the forms double complex with the twisted vertical."""
    if t_max is None:
        t_max = default_t_max(cs.fan)
    return _total_cohomology(t_max, cs.forms_total_matrix)


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
    twisted_dims = lg_cohomology(build_twisted(cs.fan), t_max).dims

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


def cup(cs: CoverSimplex, a: CechCochain, b: CechCochain) -> CechCochain:
    """Front-face/back-face cup product of two cochains of the same tag.

    The back face starts at the last front vertex.  Values multiply in
    the simplex cone by ``lg_multiply``; for graded values the product
    carries the sign (-1)^(k_a * p_b).  Satisfies the Leibniz rule for
    delta with the sign (-1)^(p_a + k_a).
    """
    if a.tag != b.tag:
        raise CechError("cup product needs matching tags")
    tag = a.tag
    fan = cs.fan
    p, q = a.p, b.p
    k = a.k + b.k
    m = a.m + b.m
    twist = -1 if (a.k * q) % 2 else 1
    result = cs.zero_cochain(tag, p + q, k, m)
    if k > fan.rank:
        return result
    for tau in cs.simplices(p + q):
        prod = lg_multiply(fan, _value(cs, a, tau[:p + 1], tau), _value(cs, b, tau[p:], tau))
        basis = cs.local_basis(TAG_FORMS, tau, k, m)
        index = {bs: i for i, bs in enumerate(basis)}
        vec = [Fraction(0)] * len(basis)
        for key, v in prod.items():
            vec[index[key]] = v
        if tag == TAG_CONST:
            vec = cs._const_solver(cs.cone_of(tau), k).solve(
                RationalMatrix.from_columns([vec], rows=len(vec))).column(0)
        result.components[tau] = linalg.scale_vector(twist, vec)
    return result


def _value(cs: CoverSimplex, c: CechCochain, face: Simplex, tau: Simplex) -> LGElement:
    """The value of c on a face of tau, as a form on the cone of tau.

    A const value is written in ambient wedge coordinates, which are the
    forms basis at m = 0.
    """
    if c.tag == TAG_FORMS:
        # restriction keeps the terms whose monomial lives on the cone of tau
        keep = cs.cone_of(tau).index_set
        return {b: v for b, v in zip(cs.local_basis(TAG_FORMS, face, c.k, c.m), c.components[face])
                if v and b[0].support <= keep}
    vec = cs.const_matrix(cs.cone_of(face), c.k).mul_vec(c.components[face])
    return {b: v for b, v in zip(cs.local_basis(TAG_FORMS, tau, c.k, c.m), vec) if v}
