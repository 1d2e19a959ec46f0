"""Shared randomised generators for the test suite (seeded, deterministic)."""

from fractions import Fraction
import random

from toriclg import Monomial, SRPolynomial, cup, kernel_basis, linalg
from toriclg.cech import TAG_CONST, CechCochain, CoverSimplex


def random_fraction(rng: random.Random, lo=-4, hi=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2)))


def random_monomial(rng: random.Random, fan, max_z=3) -> Monomial:
    cone = rng.choice(fan.all_cones)
    exps = {}
    for i in cone.ray_indices:
        e = rng.randint(0, max_z)
        if e:
            exps[i] = e
    return Monomial.from_map(exps)


def random_polynomial(rng: random.Random, fan, terms=4, max_z=3) -> SRPolynomial:
    acc = {}
    for _ in range(rng.randint(1, terms)):
        mono = random_monomial(rng, fan, max_z)
        acc[mono] = acc.get(mono, Fraction(0)) + random_fraction(rng)
    return SRPolynomial.build(fan, acc)


def random_cochain(rng: random.Random, cs: CoverSimplex, tag, p, k, m) -> CechCochain:
    comps = {}
    for tau in cs.simplices(p):
        size = len(cs.local_basis(tag, tau, k, m))
        comps[tau] = tuple(random_fraction(rng) for _ in range(size))
    return CechCochain(tag, p, k, m, comps)


def random_closed_cochain(rng: random.Random, cs: CoverSimplex, tag, p, k, m) -> CechCochain:
    """Random element of the kernel of the horizontal differential."""
    mat = cs.delta_matrix(tag, p, k, m)
    basis = kernel_basis(mat)
    n = mat.cols
    vec = [Fraction(0)] * n
    for b in basis:
        c = random_fraction(rng)
        if c:
            vec = [x + c * y for x, y in zip(vec, b)]
    return cs.cochain_from_vector(tag, p, k, m, vec)


def random_unimodular(rng: random.Random, n: int, shears=6):
    """Product of random integer shears and permutations; det = +-1."""
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(shears):
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if a == b:
            continue
        c = rng.randint(-2, 2)
        for j in range(n):
            mat[a][j] += c * mat[b][j]
        if rng.random() < 0.3:
            mat[a], mat[b] = mat[b], mat[a]
    return tuple(tuple(row) for row in mat)


# -- the const total complex, given blockwise by (Cech degree, exterior degree) --


def total_cup(cs: CoverSimplex, x, y) -> dict:
    """Cup product of const total-complex elements given blockwise."""
    out: dict = {}
    for (p1, k1), c1 in x.items():
        for (p2, k2), c2 in y.items():
            if k1 + k2 > cs.fan.rank:
                continue
            prod = cup(cs, c1, c2)
            key = (p1 + p2, k1 + k2)
            if key in out:
                prev = out[key]
                comps = {tau: linalg.add_vectors(prev.components[tau], prod.components[tau])
                         for tau in prev.components}
                out[key] = CechCochain(TAG_CONST, key[0], key[1], 0, comps)
            else:
                out[key] = prod
    return out


def const_total_vector(cs: CoverSimplex, t: int, blocks) -> tuple:
    out: list = []
    for p, k, _ in cs.total_blocks(TAG_CONST, t):
        c = blocks.get((p, k))
        if c is None:
            out.extend(linalg.zero_vector(cs.slot_layout(TAG_CONST, p, k, 0)[0]))
        else:
            out.extend(cs.cochain_to_vector(c))
    return tuple(out)


def const_total_blocks_from_vector(cs: CoverSimplex, t: int, vec) -> dict:
    out = {}
    pos = 0
    for p, k, _ in cs.total_blocks(TAG_CONST, t):
        size = cs.slot_layout(TAG_CONST, p, k, 0)[0]
        out[(p, k)] = cs.cochain_from_vector(TAG_CONST, p, k, 0, vec[pos:pos + size])
        pos += size
    return out
