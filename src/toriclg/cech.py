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

The module provides the horizontal differential, the exactness check of
the augmented complex in every degree, total complexes built by one
block assembler, quasi-isomorphism verification between the three
pipelines, and the front/back-face cup product.

Sign conventions, fixed here once:
  * horizontal delta removes vertices with alternating signs;
  * the total differential is D = delta + (-1)^p * vertical;
  * cup products carry the twist (-1)^(value degree of the left factor
    times Cech degree of the right factor).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction

from . import linalg
from .fan import Cone, Fan, FanError, cone_of_simplex
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
)

TAG_FORMS = "forms"
TAG_CONST = "const"

Simplex = tuple[int, ...]  # sorted 0-based cover positions

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

    def __init__(self, fan: Fan, cover: Sequence[Cone] | None = None,
                 allow_large: bool = False):
        self.fan = fan
        if cover is None:
            cover = fan.max_cones
        cover = tuple(fan.cone(c.ray_indices) for c in cover)
        for mc in fan.max_cones:
            if not any(mc.index_set <= c.index_set for c in cover):
                raise CechError(f"cover misses maximal cone {mc}")
        if len(cover) > MAX_COVER_DEFAULT and not allow_large:
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
        if p < 0 or p >= self.size:
            return []
        return list(itertools.combinations(range(self.size), p + 1))

    def cone_of(self, tau: Simplex) -> Cone:
        key = ("cone", tau)
        if key not in self._cache:
            self._cache[key] = cone_of_simplex(self.fan, list(self.cover),
                                               [i + 1 for i in tau])
        return self._cache[key]

    # -- local bases ----------------------------------------------------

    def _ann_basis(self, cone: Cone) -> list[Vector]:
        key = ("ann", cone)
        if key not in self._cache:
            self._cache[key] = kernel_basis(self.fan.ray_matrix(cone))
        return self._cache[key]

    def const_matrix(self, cone: Cone, k: int) -> RationalMatrix:
        """Basis of the k-wedges of the cone annihilator as columns, in
        ambient wedge coordinates (rows: k-subsets of 1..n, lex)."""
        key = ("const", cone, k)
        if key not in self._cache:
            ann = self._ann_basis(cone)
            self._cache[key] = linalg.exterior_power(
                RationalMatrix.from_columns(ann, rows=self.fan.rank), k)
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
            if tag == TAG_FORMS:
                wedges = len(ext_subsets(self.fan.rank, k))
                size = lambda cone: wedges * len(cone_monomial_basis(self.fan, cone, m))
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

    def _keep_pairs(self, src: Cone, dst: Cone, m: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
        """|B_src(m)|, |B_dst(m)| and the (source, target) index pairs of the
        monomials of degree m on src that restriction to dst keeps (the
        others it kills); B is ``cone_monomial_basis``."""
        key = ("keep", src, dst, m)
        if key not in self._cache:
            src_basis = cone_monomial_basis(self.fan, src, m)
            dst_basis = cone_monomial_basis(self.fan, dst, m)
            index = {mono: i for i, mono in enumerate(dst_basis)}
            keep = dst.index_set
            pairs = tuple((j, index[mono]) for j, mono in enumerate(src_basis)
                          if mono.support <= keep)
            self._cache[key] = (len(src_basis), len(dst_basis), pairs)
        return self._cache[key]

    def _const_restriction(self, src: Cone, dst: Cone, k: int) -> RationalMatrix:
        """Inclusion of annihilator wedges, written in the bases."""
        key = ("constres", src, dst, k)
        if key not in self._cache:
            solver = self._const_solver(dst, k)
            cols = self.const_matrix(src, k)
            self._cache[key] = RationalMatrix.from_columns(
                [solver.solve(cols.column(j)) for j in range(cols.cols)],
                rows=self.const_matrix(dst, k).cols)
        return self._cache[key]

    # -- matrices --------------------------------------------------------

    def delta_matrix(self, tag: str, p: int, k: int, m: int) -> RationalMatrix:
        """Horizontal differential from Cech degree p to p + 1."""
        key = ("delta", tag, p, k, m)
        if key not in self._cache:
            src_dim, src_off = self.slot_layout(tag, p, k, m)
            dst_dim, dst_off = self.slot_layout(tag, p + 1, k, m)
            wedges = len(ext_subsets(self.fan.rank, k))
            # the (tau, face) blocks are disjoint, so each entry is set once
            ent: dict[tuple[int, int], int | Fraction] = {}
            for tau in self.simplices(p + 1):
                dst_cone = self.cone_of(tau)
                for j in range(len(tau)):
                    face = tau[:j] + tau[j + 1:]
                    sign = -1 if j % 2 else 1
                    r0, c0 = dst_off[tau], src_off[face]
                    if tag == TAG_FORMS:
                        # identity on the wedge part, keep-or-kill on monomials
                        n_src, n_dst, pairs = self._keep_pairs(self.cone_of(face), dst_cone, m)
                        for a in range(wedges):
                            r1, c1 = r0 + a * n_dst, c0 + a * n_src
                            for c, r in pairs:
                                ent[(r1 + r, c1 + c)] = sign
                    else:
                        blk = self._const_restriction(self.cone_of(face), dst_cone, k)
                        for (r, c), v in blk.entries.items():
                            ent[(r0 + r, c0 + c)] = sign * v
            self._cache[key] = RationalMatrix(dst_dim, src_dim, ent)
        return self._cache[key]

    def global_forms(self) -> tuple[SRPolynomial, ...]:
        key = ("globalforms",)
        if key not in self._cache:
            self._cache[key] = build_twisted(self.fan).linear_forms
        return self._cache[key]

    def vertical_matrix(self, p: int, k: int, m: int) -> RationalMatrix:
        """Twisted vertical differential on the forms slot (p, k, m).

        Blockwise per simplex, with the coefficient forms restricted to
        the simplex cone; lands in (p, k - 1, m + 2).
        """
        return _block_diagonal(
            [self._local_vertical(self.cone_of(tau), k, m) for tau in self.simplices(p)])

    def _local_vertical(self, cone: Cone, k: int, m: int) -> RationalMatrix:
        key = ("localvert", cone, k, m)
        if key not in self._cache:
            forms = [restrict(f, cone) for f in self.global_forms()]
            self._cache[key] = koszul_block(self.fan, forms, k, m, cone)
        return self._cache[key]

    def augmentation_matrix(self, k: int, m: int) -> RationalMatrix:
        """Restriction of global forms to the degree-0 Cech slot."""
        monos = sr_basis(self.fan, m)
        src = [(mono, s) for s in ext_subsets(self.fan.rank, k) for mono in monos]
        dst_dim, dst_off = self.slot_layout(TAG_FORMS, 0, k, m)
        ent = {}
        for tau in self.simplices(0):
            cone = self.cone_of(tau)
            local = self.local_basis(TAG_FORMS, tau, k, m)
            index = {b: i for i, b in enumerate(local)}
            for j, (mono, s) in enumerate(src):
                if mono.support <= cone.index_set:
                    ent[(dst_off[tau] + index[(mono, s)], j)] = Fraction(1)
        return RationalMatrix(dst_dim, len(src), ent)

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
        """Block matrix between the total spaces (src_tag, t_src) and (dst_tag, t_dst).

        ``arrows(p, k, m)`` yields (target slot, block builder) pairs for one
        source slot; a block is built only when its target slot exists.
        """
        src = self.total_blocks(src_tag, t_src)
        dst = self.total_blocks(dst_tag, t_dst)
        dst_pos = {b: i for i, b in enumerate(dst)}
        blocks: dict[tuple[int, int], RationalMatrix] = {}
        for j, slot in enumerate(src):
            for target, build in arrows(*slot):
                if target in dst_pos:
                    blocks[(dst_pos[target], j)] = build()
        return linalg.block_matrix([self.slot_layout(dst_tag, *b)[0] for b in dst],
                                   [self.slot_layout(src_tag, *b)[0] for b in src], blocks)

    def const_total_matrix(self, t: int) -> RationalMatrix:
        """Total differential delta on the const double complex (zero vertical)."""
        key = ("consttotal", t)
        if key not in self._cache:
            def arrows(p, k, m):
                yield (p + 1, k, m), lambda: self.delta_matrix(TAG_CONST, p, k, m)

            self._cache[key] = self._assemble(TAG_CONST, TAG_CONST, t, t + 1, arrows)
        return self._cache[key]

    def forms_total_matrix(self, t: int) -> RationalMatrix:
        """Total differential delta + (-1)^p vertical on the forms double complex."""
        key = ("formstotal", t)
        if key not in self._cache:
            def signed_vertical(p, k, m):
                vert = self.vertical_matrix(p, k, m)
                return vert.scale(-1) if p % 2 else vert

            def arrows(p, k, m):
                yield (p + 1, k, m), lambda: self.delta_matrix(TAG_FORMS, p, k, m)
                if k >= 1:
                    yield (p, k - 1, m + 2), lambda: signed_vertical(p, k, m)

            self._cache[key] = self._assemble(TAG_FORMS, TAG_FORMS, t, t + 1, arrows)
        return self._cache[key]

    def inclusion_matrix(self, t: int) -> RationalMatrix:
        """Chain map from the const total space into the forms total space."""
        key = ("inclusion", t)
        if key not in self._cache:
            # at m = 0 the local forms basis is exactly the ambient wedge basis
            def arrows(p, k, m):
                yield (p, k, m), lambda: _block_diagonal(
                    [self.const_matrix(self.cone_of(tau), k) for tau in self.simplices(p)])

            self._cache[key] = self._assemble(TAG_CONST, TAG_FORMS, t, t, arrows)
        return self._cache[key]

    # -- cochain plumbing ---------------------------------------------------

    def zero_cochain(self, tag: str, p: int, k: int, m: int) -> CechCochain:
        comps = {tau: linalg.zero_vector(len(self.local_basis(tag, tau, k, m)))
                 for tau in self.simplices(p)}
        return CechCochain(tag, p, k, m, comps)


def _block_diagonal(blocks: Sequence[RationalMatrix]) -> RationalMatrix:
    return linalg.block_matrix([b.rows for b in blocks], [b.cols for b in blocks],
                               {(i, i): b for i, b in enumerate(blocks)})


# -- exactness -----------------------------------------------------------------


class ExactnessReport:
    """Per-degree exactness of the augmented complex of a cover."""

    __slots__ = ("m_max", "exterior_degree", "entries", "augmentation", "exact")

    def __init__(self, m_max: int, exterior_degree: int, entries: dict[tuple[int, int], dict],
                 augmentation: dict[int, dict], exact: bool):
        self.m_max = m_max
        self.exterior_degree = exterior_degree
        self.entries = entries                # (m, p) -> dims/ranks/verdict
        self.augmentation = augmentation      # m -> injectivity and image data
        self.exact = exact

    def degree_exact(self, m: int) -> bool:
        """Exactness of the slice of polynomial degree m."""
        return all(e["exact"] for (mm, _), e in self.entries.items() if mm == m)


def verify_exactness(cs: CoverSimplex, m_max: int, exterior_degree: int = 0) -> ExactnessReport:
    """Check degreewise exactness of 0 -> global -> C^0 -> C^1 -> ...

    The coefficients are the forms of exterior degree ``exterior_degree``
    (0: the polynomial functions).  Works in each polynomial degree
    m <= m_max separately (odd slices are zero).  A slot is exact when
    the incoming map composes to zero with the outgoing one and their
    ranks add up to its dimension.  Failures are recorded, not raised.
    """
    k = exterior_degree
    entries: dict[tuple[int, int], dict] = {}
    augmentation: dict[int, dict] = {}
    exact = True
    s = cs.size
    for m in range(m_max + 1):
        aug = cs.augmentation_matrix(k, m)
        deltas = [cs.delta_matrix(TAG_FORMS, p, k, m) for p in range(s)]
        dims = [cs.slot_layout(TAG_FORMS, p, k, m)[0] for p in range(s)]
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
    return ExactnessReport(m_max, k, entries, augmentation, exact)


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
                 "chain_map_ok", "induced_iso_ok")

    def __init__(self, t_max: int, dims_twisted: tuple[int, ...],
                 dims_forms_total: tuple[int, ...], dims_const_total: tuple[int, ...],
                 chain_map_ok: bool, induced_iso_ok: bool):
        self.t_max = t_max
        self.dims_twisted = dims_twisted
        self.dims_forms_total = dims_forms_total
        self.dims_const_total = dims_const_total
        self.chain_map_ok = chain_map_ok
        self.induced_iso_ok = induced_iso_ok

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
    cohomology (full-rank reduced images, equal dimensions), and that the
    twisted complex of the global ring has the same dimensions as the
    forms total complex.
    """
    if t_max is None:
        t_max = default_t_max(cs.fan)
    const = constant_total_cohomology(cs, t_max)
    forms = forms_total_cohomology(cs, t_max)
    twisted_dims = lg_cohomology(build_twisted(cs.fan), t_max).dims

    chain_ok = True
    for t in range(t_max + 1):
        left = cs.forms_total_matrix(t) @ cs.inclusion_matrix(t)
        right = cs.inclusion_matrix(t + 1) @ cs.const_total_matrix(t)
        if left != right:
            chain_ok = False
            break

    induced_ok = True
    for t in range(t_max + 1):
        cslot = const.slots[t]
        fslot = forms.slots[t]
        if cslot.dim != fslot.dim:
            induced_ok = False
            break
        if cslot.dim == 0:
            continue
        inc = cs.inclusion_matrix(t)
        images = [fslot.reduce(inc.mul_vec(rep)) for rep in cslot.representatives]
        if linalg.rank(RationalMatrix.from_columns(images, rows=fslot.dim)) != cslot.dim:
            induced_ok = False
            break

    return QuasiIsoReport(t_max, twisted_dims, forms.dims, const.dims,
                          chain_ok, induced_ok)


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
            vec = cs._const_solver(cs.cone_of(tau), k).solve(vec)
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
