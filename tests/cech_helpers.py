"""Cech cochains as the tests handle them: a record of one coordinate
vector per simplex, its local basis, coordinate vectors and total-complex
columns, polynomial components, the horizontal differential on one
cochain, the block-diagonal vertical differential of one slot, and the
constructive gluing and splitting of functions.

No command runs any of this.  Every function takes the ``CoverSimplex``
whose slot layouts and delta matrices it reads.
"""

import functools
import itertools
from collections.abc import Mapping, Sequence
from fractions import Fraction

from toriclg import linalg
from toriclg.cech import TAG_CONST, TAG_FORMS, CechError, CoverSimplex, Simplex
from toriclg.linalg import LinearSolver, RationalMatrix, Vector
from toriclg.srring import Monomial, SRPolynomial, cone_monomial_basis, monomial_sort_key, restrict
from toriclg.twisted import ext_subsets


# -- cochain plumbing ---------------------------------------------------------


class Cochain:
    """Homogeneous cochain: one coordinate vector per p-simplex, in the
    basis ``local_basis`` gives.

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


def local_basis(cs: CoverSimplex, tag: str, tau: Simplex, k: int, m: int) -> list:
    """The basis of the local space of slot (k, m) on tau: (monomial, wedge)
    pairs, wedge-major, for forms; the columns of ``const_matrix`` for const."""
    cone = cs.cone_of(tau)
    if tag == TAG_FORMS:
        monos = cone_monomial_basis(cs.fan, cone, m)
        return [(mono, s) for s in ext_subsets(cs.fan.rank, k) for mono in monos]
    if tag == TAG_CONST:
        return list(range(cs.const_matrix(cone, k).cols))
    raise CechError(f"unknown tag {tag!r}")


def zero_cochain(cs: CoverSimplex, tag: str, p: int, k: int, m: int) -> Cochain:
    return Cochain(tag, p, k, m, {tau: (Fraction(0),) * len(local_basis(cs, tag, tau, k, m))
                                  for tau in cs.simplices(p)})


def cochain_to_vector(cs: CoverSimplex, c: Cochain) -> Vector:
    total, offsets = cs.slot_layout(c.tag, c.p, c.k, c.m)
    out = [Fraction(0)] * total
    for tau, vec in c.components.items():
        off = offsets[tau]
        for i, v in enumerate(vec):
            out[off + i] = v
    return tuple(out)


def cochain_from_vector(cs: CoverSimplex, tag: str, p: int, k: int, m: int,
                        vec: Sequence) -> Cochain:
    comps = {}
    pos = 0
    for tau in cs.simplices(p):
        size = len(local_basis(cs, tag, tau, k, m))
        comps[tau] = tuple(Fraction(linalg._exact(v)) for v in vec[pos:pos + size])
        pos += size
    if pos != len(vec):
        raise CechError("vector length does not match the slot")
    return Cochain(tag, p, k, m, comps)


def slot_rows(cs: CoverSimplex, tag: str, t: int, p: int, k: int, m: int) -> tuple[int, range]:
    """The dimension of the total space (tag, t) and the rows of its slot
    (p, k, m): the slots of ``total_blocks`` one after another."""
    rows, found = 0, None
    for slot in cs.total_blocks(tag, t):
        size = cs.slot_layout(tag, *slot)[0]
        if slot == (p, k, m):
            found = range(rows, rows + size)
        rows += size
    if found is None:
        raise CechError(f"no slot {(p, k, m)} in the total space ({tag}, {t})")
    return rows, found


def to_total(cs: CoverSimplex, cochains: Sequence[Cochain]) -> RationalMatrix:
    """Total-complex columns, one per cochain, each zero outside its slot;
    the cochains share one slot."""
    tag, p, k, m = (cochains[0].tag, cochains[0].p, cochains[0].k, cochains[0].m)
    if any((c.tag, c.p, c.k, c.m) != (tag, p, k, m) for c in cochains):
        raise CechError("the cochains of one batch share a slot")
    rows, at = slot_rows(cs, tag, p + k + m, p, k, m)
    return RationalMatrix(rows, len(cochains), {(at[i], j): v for j, c in enumerate(cochains)
                                                for i, v in enumerate(cochain_to_vector(cs, c))})


def from_total(cs: CoverSimplex, tag: str, column: Vector, p: int, k: int, m: int) -> Cochain:
    """The slot (p, k, m) of one total-complex column of degree p + k + m."""
    rows, at = slot_rows(cs, tag, p + k + m, p, k, m)
    if len(column) != rows:
        raise CechError("column length does not match the total space")
    return cochain_from_vector(cs, tag, p, k, m, [column[i] for i in at])


def vertical_matrix(cs: CoverSimplex, p: int, k: int, m: int) -> RationalMatrix:
    """Twisted vertical differential on the forms slot (p, k, m), block-diagonal
    over the p-simplices with the coefficient forms restricted to each simplex
    cone; lands in (p, k - 1, m + 2)."""
    blocks = [cs._local_vertical(cs.cone_of(tau), k, m) for tau in cs.simplices(p)]
    return linalg.block_matrix([b.rows for b in blocks], [b.cols for b in blocks],
                               {(i, i): b for i, b in enumerate(blocks)})


def cochain_delta(cs: CoverSimplex, c: Cochain) -> Cochain:
    mat = cs.delta_matrix(c.tag, c.p, c.k, c.m)
    vec = cochain_to_vector(cs, c)
    return cochain_from_vector(cs, c.tag, c.p + 1, c.k, c.m,
                               (mat @ RationalMatrix.from_columns([vec], rows=len(vec))).column(0))


def functions_cochain(cs: CoverSimplex, p: int, m: int,
                      polys: Mapping[Simplex, SRPolynomial]) -> Cochain:
    """The forms cochain of exterior degree 0 with the given polynomial values."""
    comps = {}
    for tau in cs.simplices(p):
        poly = polys.get(tau, SRPolynomial(cs.fan, ()))
        comps[tau] = _poly_to_local(cs, tau, m, poly)
    return Cochain(TAG_FORMS, p, 0, m, comps)


def _poly_to_local(cs: CoverSimplex, tau: Simplex, m: int, poly: SRPolynomial) -> Vector:
    basis = cone_monomial_basis(cs.fan, cs.cone_of(tau), m)
    index = {mono: i for i, mono in enumerate(basis)}
    out = [Fraction(0)] * len(basis)
    for mono, coeff in poly.terms:
        if mono not in index:
            raise CechError(f"monomial {mono} not supported on simplex cone "
                            f"{cs.cone_of(tau)} in degree {m}")
        out[index[mono]] = coeff
    return tuple(out)


def poly_components(cs: CoverSimplex, c: Cochain) -> dict[Simplex, SRPolynomial]:
    _require_functions(c, "polynomial components")
    out = {}
    for tau, vec in c.components.items():
        basis = cone_monomial_basis(cs.fan, cs.cone_of(tau), c.m)
        out[tau] = SRPolynomial.build(cs.fan, {mono: v for mono, v in zip(basis, vec)})
    return out


@functools.cache
def _coboundary_solver(q: int, p: int) -> LinearSolver:
    """Solver for the simplicial coboundary C^(p-1) -> C^p of the full
    simplex on q vertices (constant coefficients)."""
    rows = list(itertools.combinations(range(q), p + 1))
    col_pos = {c: i for i, c in enumerate(itertools.combinations(range(q), p))}
    ent = {}
    for r, tau in enumerate(rows):
        for j in range(len(tau)):
            ent[(r, col_pos[tau[:j] + tau[j + 1:]])] = Fraction(-1 if j % 2 else 1)
    return LinearSolver(RationalMatrix(len(rows), len(col_pos), ent))


def _require_functions(c: Cochain, what: str) -> None:
    if c.tag != TAG_FORMS or c.k != 0:
        raise CechError(f"{what}: expected a forms cochain of exterior degree 0, "
                        f"got tag {c.tag!r} with k = {c.k}")


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
    total = SRPolynomial(fan, ())
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
        acc = SRPolynomial(cs.fan, ())
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
    terms = {tau: dict(rhs[tau].terms) for tau in taus}
    targets = RationalMatrix.from_columns([[terms[tau].get(mono, 0) for tau in taus] for mono in monos],
                                          rows=len(taus))
    acc: dict[Simplex, dict[Monomial, Fraction]] = {om: {} for om in omegas}
    for (i, j), val in _coboundary_solver(q, p).solve(targets).entries.items():
        acc[omegas[i]][monos[j]] = val
    return {om: SRPolynomial.build(fan, terms) for om, terms in acc.items()}


def split_cocycle(cs: CoverSimplex, g: Cochain) -> Cochain:
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
    current = poly_components(cs, g)
    if any(not v.is_zero() for v in _delta_polys(cs, current, p).values()):
        raise CechError("input cochain is not closed")
    h_acc: dict[Simplex, SRPolynomial] = {om: SRPolynomial(fan, ())
                                          for om in cs.simplices(p - 1)}

    for size in range(s, p + 1, -1):
        stage: dict[Simplex, SRPolynomial] = {om: SRPolynomial(fan, ())
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

    final: dict[Simplex, SRPolynomial] = {om: SRPolynomial(fan, ())
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
    return functions_cochain(cs, p - 1, m, h_acc)


def split_cocycle_generic(cs: CoverSimplex, g: Cochain) -> Cochain:
    """One-shot linear solve h with delta h = g; cross-check for split_cocycle."""
    if g.p < 1:
        raise CechError("split needs Cech degree at least 1")
    mat = cs.delta_matrix(g.tag, g.p - 1, g.k, g.m)
    vec = cochain_to_vector(cs, g)
    out = cs.delta_matrix(g.tag, g.p, g.k, g.m)
    if not (out @ RationalMatrix.from_columns([vec], rows=len(vec))).is_zero():
        raise CechError("input cochain is not closed")
    sol = linalg.lift(mat, vec)
    return cochain_from_vector(cs, g.tag, g.p - 1, g.k, g.m, sol)
