"""Cech complexes over a cone cover and the associated double complexes.

A cover of the fan support by cones induces two coefficient systems on
the full simplex over the cover, named by a tag:

  * "forms": polynomial functions of the intersection subspaces tensored
    with the exterior algebra, carrying the twisted vertical
    differential.  The polynomial functions are the forms of exterior
    degree k = 0; gluing, splitting and ``poly_components`` work there.
  * "const": the constant-coefficient wedge powers of the cone
    annihilators, written in ambient wedge coordinates by
    ``CoverSimplex.const_matrix``.

The module provides the horizontal differential, the exactness check of
the augmented complex in every degree, constructive gluing and splitting
of cocycles (with deterministic, zero-preserving lifts), total complexes
built by one block assembler, quasi-isomorphism verification between the
three pipelines, and the front/back-face cup product.

Sign conventions, fixed here once:
  * horizontal delta removes vertices with alternating signs;
  * the total differential is D = delta + (-1)^p * vertical;
  * cup products carry the twist (-1)^(value degree of the left factor
    times Cech degree of the right factor).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
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
from .srring import Monomial, SRPolynomial, cone_monomial_basis, monomial_sort_key, restrict, sr_basis
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
        """Total dimension and per-simplex offsets of one Cech slot."""
        key = ("layout", tag, p, k, m)
        if key not in self._cache:
            offsets = {}
            total = 0
            for tau in self.simplices(p):
                offsets[tau] = total
                total += len(self.local_basis(tag, tau, k, m))
            self._cache[key] = (total, offsets)
        return self._cache[key]

    # -- restriction blocks ---------------------------------------------

    def _poly_restriction(self, src: Cone, dst: Cone, m: int) -> RationalMatrix:
        """Monomial restriction between cone coordinate rings (keep or kill)."""
        key = ("polyres", src, dst, m)
        if key not in self._cache:
            src_basis = cone_monomial_basis(self.fan, src, m)
            dst_basis = cone_monomial_basis(self.fan, dst, m)
            index = {mono: i for i, mono in enumerate(dst_basis)}
            keep = dst.index_set
            ent = {}
            for j, mono in enumerate(src_basis):
                if mono.support <= keep:
                    ent[(index[mono], j)] = Fraction(1)
            self._cache[key] = RationalMatrix(len(dst_basis), len(src_basis), ent)
        return self._cache[key]

    def _forms_restriction(self, src: Cone, dst: Cone, k: int, m: int) -> RationalMatrix:
        """Restriction on forms: identity on the wedge part."""
        key = ("formsres", src, dst, k, m)
        if key not in self._cache:
            blk = self._poly_restriction(src, dst, m)
            self._cache[key] = _block_diagonal([blk] * len(ext_subsets(self.fan.rank, k)))
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

    def restriction_block(self, tag: str, src: Cone, dst: Cone, k: int, m: int) -> RationalMatrix:
        if tag == TAG_FORMS:
            return self._forms_restriction(src, dst, k, m)
        if tag == TAG_CONST:
            return self._const_restriction(src, dst, k)
        raise CechError(f"unknown tag {tag!r}")

    # -- matrices --------------------------------------------------------

    def delta_matrix(self, tag: str, p: int, k: int, m: int) -> RationalMatrix:
        """Horizontal differential from Cech degree p to p + 1."""
        key = ("delta", tag, p, k, m)
        if key not in self._cache:
            src_dim, src_off = self.slot_layout(tag, p, k, m)
            dst_dim, dst_off = self.slot_layout(tag, p + 1, k, m)
            ent: dict[tuple[int, int], int | Fraction] = {}
            for tau in self.simplices(p + 1):
                dst_cone = self.cone_of(tau)
                for j in range(len(tau)):
                    face = tau[:j] + tau[j + 1:]
                    sign = -1 if j % 2 else 1
                    blk = self.restriction_block(tag, self.cone_of(face), dst_cone, k, m)
                    r0, c0 = dst_off[tau], src_off[face]
                    for (r, c), v in blk.entries.items():
                        keyrc = (r0 + r, c0 + c)
                        ent[keyrc] = ent.get(keyrc, 0) + sign * v
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

    def cochain_to_vector(self, c: CechCochain) -> Vector:
        total, offsets = self.slot_layout(c.tag, c.p, c.k, c.m)
        out = [Fraction(0)] * total
        for tau, vec in c.components.items():
            off = offsets[tau]
            for i, v in enumerate(vec):
                out[off + i] = v
        return tuple(out)

    def cochain_from_vector(self, tag: str, p: int, k: int, m: int, vec: Sequence) -> CechCochain:
        comps = {}
        pos = 0
        for tau in self.simplices(p):
            size = len(self.local_basis(tag, tau, k, m))
            comps[tau] = tuple(linalg._fraction(v) for v in vec[pos:pos + size])
            pos += size
        if pos != len(vec):
            raise CechError("vector length does not match the slot")
        return CechCochain(tag, p, k, m, comps)

    def cochain_delta(self, c: CechCochain) -> CechCochain:
        mat = self.delta_matrix(c.tag, c.p, c.k, c.m)
        return self.cochain_from_vector(c.tag, c.p + 1, c.k, c.m,
                                        mat.mul_vec(self.cochain_to_vector(c)))

    def functions_cochain(self, p: int, m: int,
                          polys: Mapping[Simplex, SRPolynomial]) -> CechCochain:
        """The forms cochain of exterior degree 0 with the given polynomial values."""
        comps = {}
        for tau in self.simplices(p):
            poly = polys.get(tau, SRPolynomial.zero(self.fan))
            comps[tau] = self._poly_to_local(tau, m, poly)
        return CechCochain(TAG_FORMS, p, 0, m, comps)

    def _poly_to_local(self, tau: Simplex, m: int, poly: SRPolynomial) -> Vector:
        basis = cone_monomial_basis(self.fan, self.cone_of(tau), m)
        index = {mono: i for i, mono in enumerate(basis)}
        out = [Fraction(0)] * len(basis)
        for mono, coeff in poly.terms:
            if mono not in index:
                raise CechError(f"monomial {mono} not supported on simplex cone "
                                f"{self.cone_of(tau)} in degree {m}")
            out[index[mono]] = coeff
        return tuple(out)

    def poly_components(self, c: CechCochain) -> dict[Simplex, SRPolynomial]:
        _require_functions(c, "polynomial components")
        out = {}
        for tau, vec in c.components.items():
            basis = cone_monomial_basis(self.fan, self.cone_of(tau), c.m)
            out[tau] = SRPolynomial.build(
                self.fan, {mono: v for mono, v in zip(basis, vec)})
        return out

    def _coboundary_solver(self, q: int, p: int) -> LinearSolver:
        """Solver for the simplicial coboundary C^(p-1) -> C^p of the full
        simplex on q vertices (constant coefficients)."""
        key = ("coboundary", q, p)
        if key not in self._cache:
            rows = list(itertools.combinations(range(q), p + 1))
            col_pos = {c: i for i, c in enumerate(itertools.combinations(range(q), p))}
            ent = {}
            for r, tau in enumerate(rows):
                for j in range(len(tau)):
                    ent[(r, col_pos[tau[:j] + tau[j + 1:]])] = Fraction(-1 if j % 2 else 1)
            self._cache[key] = LinearSolver(RationalMatrix(len(rows), len(col_pos), ent))
        return self._cache[key]


def _block_diagonal(blocks: Sequence[RationalMatrix]) -> RationalMatrix:
    return linalg.block_matrix([b.rows for b in blocks], [b.cols for b in blocks],
                               {(i, i): b for i, b in enumerate(blocks)})


def _require_functions(c: CechCochain, what: str) -> None:
    if c.tag != TAG_FORMS or c.k != 0:
        raise CechError(f"{what}: expected a forms cochain of exterior degree 0, "
                        f"got tag {c.tag!r} with k = {c.k}")


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


# -- gluing and splitting --------------------------------------------------------


def glue_sections(cs: CoverSimplex, components: Sequence[SRPolynomial]) -> SRPolynomial:
    """Glue compatible local functions into a global one.

    ``components[i]`` lives on the i-th cover cone; compatibility means
    the restrictions to pairwise intersections agree.  The global result
    is the alternating sum of the section's restrictions over all
    simplices, and restricts back to each input.
    """
    fan = cs.fan
    if len(components) != cs.size:
        raise CechError("need one component per cover cone")
    comps = [restrict(g, cone) for g, cone in zip(components, cs.cover)]
    for g, cone, orig in zip(comps, cs.cover, components):
        if g != orig:
            raise CechError(f"component on {cone} has support outside its cone")
    for i, j in itertools.combinations(range(cs.size), 2):
        overlap = cs.cone_of((i, j))
        if restrict(comps[i], overlap) != restrict(comps[j], overlap):
            raise CechError(f"components {i + 1} and {j + 1} disagree on {overlap}")
    total = SRPolynomial.zero(fan)
    for p in range(cs.size):
        sign = -1 if p % 2 else 1
        for tau in cs.simplices(p):
            piece = restrict(comps[tau[0]], cs.cone_of(tau))
            total = total + piece.scale(sign)
    for g, cone in zip(comps, cs.cover):
        assert restrict(total, cone) == g, "glued section fails to restrict"
    return total


def _delta_polys(cs: CoverSimplex, comps: Mapping[Simplex, SRPolynomial],
                 p: int) -> dict[Simplex, SRPolynomial]:
    out = {}
    for tau in cs.simplices(p + 1):
        cone = cs.cone_of(tau)
        acc = SRPolynomial.zero(cs.fan)
        for j in range(len(tau)):
            face = tau[:j] + tau[j + 1:]
            piece = restrict(comps[face], cone)
            acc = acc + (piece.scale(-1) if j % 2 else piece)
        out[tau] = acc
    return out


def _solve_on_stratum(cs: CoverSimplex, vertices: Simplex, p: int,
                      rhs: Mapping[Simplex, SRPolynomial]) -> dict[Simplex, SRPolynomial]:
    """Split a closed p-cochain on the full simplex over `vertices`.

    Coefficients live in the stratum cone's coordinate ring; each monomial
    is lifted separately through the constant simplicial coboundary, so a
    zero coefficient stays zero (the lift is support-preserving).
    """
    fan = cs.fan
    q = len(vertices)
    taus = list(itertools.combinations(vertices, p + 1))
    omegas = list(itertools.combinations(vertices, p))
    monos = sorted({mono for poly in rhs.values() for mono, _ in poly.terms},
                   key=monomial_sort_key(fan.num_rays))
    solver = cs._coboundary_solver(q, p)
    acc: dict[Simplex, dict[Monomial, Fraction]] = {om: {} for om in omegas}
    for mono in monos:
        target = [rhs[tau].coeff(mono) for tau in taus]
        sol = solver.solve(target)
        for om, val in zip(omegas, sol):
            if val:
                acc[om][mono] = val
    return {om: SRPolynomial.build(fan, terms) for om, terms in acc.items()}


def split_cocycle(cs: CoverSimplex, g: CechCochain) -> CechCochain:
    """Write a closed positive-degree functions cocycle as a coboundary.

    Follows the constructive splitting: first kill the restriction to the
    deepest stratum using contractibility of the simplex, then walk the
    strata from large vertex sets down, and finish with a projection lift
    along a chosen facet of each simplex.  Exact; raises if the input is
    not closed.
    """
    _require_functions(g, "split_cocycle")
    p, m = g.p, g.m
    if p < 1:
        raise CechError("split_cocycle needs Cech degree at least 1")
    fan = cs.fan
    s = cs.size
    current = cs.poly_components(g)
    if any(not v.is_zero() for v in _delta_polys(cs, current, p).values()):
        raise CechError("input cochain is not closed")
    h_acc: dict[Simplex, SRPolynomial] = {om: SRPolynomial.zero(fan)
                                          for om in cs.simplices(p - 1)}

    for size in range(s, p + 1, -1):
        stage: dict[Simplex, SRPolynomial] = {om: SRPolynomial.zero(fan)
                                              for om in cs.simplices(p - 1)}
        touched = False
        for vertices in itertools.combinations(range(s), size):
            stratum_cone = cs.cone_of(vertices)
            rhs = {}
            nonzero = False
            for tau in itertools.combinations(vertices, p + 1):
                piece = restrict(current[tau], stratum_cone)
                rhs[tau] = piece
                nonzero = nonzero or not piece.is_zero()
            if not nonzero:
                continue
            local = _solve_on_stratum(cs, vertices, p, rhs)
            for om, poly in local.items():
                if not poly.is_zero():
                    stage[om] = stage[om] + poly
                    touched = True
        if touched:
            correction = _delta_polys(cs, stage, p - 1)
            current = {tau: current[tau] - correction[tau] for tau in current}
            h_acc = {om: h_acc[om] + stage[om] for om in h_acc}

    final: dict[Simplex, SRPolynomial] = {om: SRPolynomial.zero(fan)
                                          for om in cs.simplices(p - 1)}
    sign = Fraction(-1 if p % 2 else 1)
    any_final = False
    for tau in cs.simplices(p):
        poly = current[tau]
        if poly.is_zero():
            continue
        om = tau[:-1]
        final[om] = final[om] + poly.scale(sign)
        any_final = True
    if any_final:
        correction = _delta_polys(cs, final, p - 1)
        current = {tau: current[tau] - correction[tau] for tau in current}
        h_acc = {om: h_acc[om] + final[om] for om in h_acc}
    if any(not v.is_zero() for v in current.values()):
        raise CechError("internal error: splitting left a nonzero residue")
    return cs.functions_cochain(p - 1, m, h_acc)


def split_cocycle_generic(cs: CoverSimplex, g: CechCochain) -> CechCochain:
    """One-shot linear solve h with delta h = g; cross-check for split_cocycle."""
    if g.p < 1:
        raise CechError("split needs Cech degree at least 1")
    mat = cs.delta_matrix(g.tag, g.p - 1, g.k, g.m)
    vec = cs.cochain_to_vector(g)
    out = cs.delta_matrix(g.tag, g.p, g.k, g.m)
    if not linalg.is_zero_vector(out.mul_vec(vec)):
        raise CechError("input cochain is not closed")
    sol = linalg.lift(mat, vec)
    return cs.cochain_from_vector(g.tag, g.p - 1, g.k, g.m, sol)


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
        block = cs.restriction_block(TAG_FORMS, cs.cone_of(face), cs.cone_of(tau), c.k, c.m)
    else:
        block = cs.const_matrix(cs.cone_of(face), c.k)
    vec = block.mul_vec(c.components[face])
    return {b: v for b, v in zip(cs.local_basis(TAG_FORMS, tau, c.k, c.m), vec) if v}
