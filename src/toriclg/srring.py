"""Stanley-Reisner model of the union of coordinate subspaces of a fan.

The ring is spanned by monomials whose support is a face of the fan; the
normal form simply drops non-face monomials, so no Groebner machinery is
needed.  Each variable has (cohomological) degree 2.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction

from .fan import Cone, Fan, FanError
from .linalg import _exact


@dataclass(frozen=True, order=True)
class Monomial:
    """Monomial in the ray variables; exponents stored sparsely, all >= 1."""

    exps: tuple[tuple[int, int], ...]  # ((ray index, exponent), ...) sorted

    @classmethod
    def one(cls) -> "Monomial":
        return cls(())

    @classmethod
    def variable(cls, i: int) -> "Monomial":
        return cls(((i, 1),))

    @classmethod
    def from_map(cls, exps: Mapping[int, int]) -> "Monomial":
        items = tuple(sorted((i, e) for i, e in exps.items() if e))
        if any(e < 0 for _, e in items):
            raise ValueError("negative exponent")
        return cls(items)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.exps)

    @property
    def zdegree(self) -> int:
        return sum(e for _, e in self.exps)

    @property
    def degree(self) -> int:
        return 2 * self.zdegree

    def times(self, other: "Monomial") -> "Monomial":
        exps = dict(self.exps)
        for i, e in other.exps:
            exps[i] = exps.get(i, 0) + e
        return Monomial.from_map(exps)

    def dense(self, num_rays: int) -> tuple[int, ...]:
        out = [0] * num_rays
        for i, e in self.exps:
            out[i - 1] = e
        return tuple(out)

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        return "*".join(f"z{i}" if e == 1 else f"z{i}^{e}" for i, e in self.exps)


def monomial_sort_key(num_rays: int):
    """Descending lex on dense exponent vectors (z1 heaviest)."""
    def key(m: Monomial):
        return tuple(-e for e in m.dense(num_rays))
    return key


@dataclass(frozen=True)
class SRPolynomial:
    """Rational combination of face-supported monomials, in normal form.

    Construction filters out monomials whose support is not a face and
    drops zero coefficients, so equality of normal forms is term equality.
    A coefficient is an int when it is integral, else a Fraction, never a
    float (``linalg._exact``).
    """

    fan: Fan
    terms: tuple[tuple[Monomial, int | Fraction], ...]

    @classmethod
    def build(cls, fan: Fan, terms: Mapping[Monomial, int | Fraction] | Iterable[tuple[Monomial, int | Fraction]]) -> "SRPolynomial":
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, int | Fraction] = {}
        for mono, coeff in items:
            coeff = _exact(coeff)
            if coeff == 0 or not fan.is_face(mono.support):
                continue
            acc[mono] = acc.get(mono, 0) + coeff
        key = monomial_sort_key(fan.num_rays)
        cleaned = tuple(sorted(((m, _exact(c)) for m, c in acc.items() if c != 0),
                               key=lambda mc: key(mc[0])))
        return cls(fan, cleaned)

    @classmethod
    def zero(cls, fan: Fan) -> "SRPolynomial":
        return cls(fan, ())

    @classmethod
    def one(cls, fan: Fan) -> "SRPolynomial":
        return cls.build(fan, {Monomial.one(): 1})

    @classmethod
    def variable(cls, fan: Fan, i: int) -> "SRPolynomial":
        return cls.build(fan, {Monomial.variable(i): 1})

    def coeff(self, mono: Monomial) -> int | Fraction:
        for m, c in self.terms:
            if m == mono:
                return c
        return 0

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "SRPolynomial") -> "SRPolynomial":
        self._check(other)
        return SRPolynomial.build(self.fan, list(self.terms) + list(other.terms))

    def __sub__(self, other: "SRPolynomial") -> "SRPolynomial":
        return self + other.scale(-1)

    def scale(self, c) -> "SRPolynomial":
        c = _exact(c)
        return SRPolynomial.build(self.fan, [(m, c * v) for m, v in self.terms])

    def __mul__(self, other: "SRPolynomial") -> "SRPolynomial":
        return multiply(self, other)

    def _check(self, other: "SRPolynomial") -> None:
        if other.fan is not self.fan and other.fan != self.fan:
            raise FanError("polynomials over different fans")

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.terms:
            body = str(mono)
            if coeff == 1 and body != "1":
                chunk = body
            elif coeff == -1 and body != "1":
                chunk = f"-{body}"
            elif body == "1":
                chunk = str(coeff)
            else:
                chunk = f"{coeff}*{body}"
            parts.append(chunk)
        out = parts[0]
        for chunk in parts[1:]:
            out += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
        return out


def restrict(p: SRPolynomial, cone: Cone) -> SRPolynomial:
    """Kill every monomial whose support is not contained in the cone."""
    keep = cone.index_set
    return SRPolynomial(p.fan, tuple((m, c) for m, c in p.terms if m.support <= keep))


def multiply(p: SRPolynomial, q: SRPolynomial) -> SRPolynomial:
    """Product in the quotient ring; non-face monomials drop out."""
    p._check(q)
    acc: dict[Monomial, int | Fraction] = {}
    for m1, c1 in p.terms:
        for m2, c2 in q.terms:
            prod = m1.times(m2)
            acc[prod] = acc.get(prod, 0) + c1 * c2
    return SRPolynomial.build(p.fan, acc)


def _compositions(total: int, parts: int):
    """Weak compositions of `total` into `parts` nonnegative entries."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def cone_monomial_basis(fan: Fan, cone: Cone, degree: int) -> list[Monomial]:
    """Monomials of the given (doubled) degree supported inside one cone.

    This is the degree slice of the polynomial ring on the cone's rays;
    empty for odd degrees.  Ordered by descending lex.
    """
    if degree < 0 or degree % 2:
        return []
    z = degree // 2
    idxs = cone.ray_indices
    out = []
    for comp in _compositions(z, len(idxs)):
        out.append(Monomial.from_map({i: e for i, e in zip(idxs, comp) if e}))
    out.sort(key=monomial_sort_key(fan.num_rays))
    return out


def sr_basis(fan: Fan, degree: int) -> list[Monomial]:
    """Monomial basis of the degree slice of the quotient ring.

    All monomials of the given doubled degree whose support is a face,
    in descending lex order.
    """
    if degree < 0 or degree % 2:
        return []
    z = degree // 2
    seen: set[Monomial] = set()
    for cone in fan.all_cones:
        k = cone.dim
        if k == 0:
            if z == 0:
                seen.add(Monomial.one())
            continue
        # support exactly this face: all exponents >= 1
        if z < k:
            continue
        for comp in _compositions(z - k, k):
            seen.add(Monomial.from_map({i: e + 1 for i, e in zip(cone.ray_indices, comp)}))
    out = sorted(seen, key=monomial_sort_key(fan.num_rays))
    return out


def hilbert_series(fan: Fan, max_degree: int) -> tuple[int, ...]:
    """Dimensions of the even-degree slices 0, 2, ..., max_degree."""
    if max_degree % 2:
        raise FanError("max_degree must be even")
    return tuple(len(sr_basis(fan, m)) for m in range(0, max_degree + 1, 2))
