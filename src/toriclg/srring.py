"""Stanley-Reisner model of the union of coordinate subspaces of a fan.

The ring is spanned by monomials whose support is a face of the fan; the
normal form simply drops non-face monomials, so no Groebner machinery is
needed.  Each variable has (cohomological) degree 2.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from .fan import Cone, Fan, FanError
from .linalg import _exact


class Monomial:
    """Monomial in the ray variables; exponents stored sparsely, all >= 1.  Immutable."""

    __slots__ = ("exps",)

    def __init__(self, exps: tuple[tuple[int, int], ...]):
        self.exps = exps  # ((ray index, exponent), ...) sorted

    def __eq__(self, other):
        return self.exps == other.exps if type(other) is Monomial else NotImplemented

    def __hash__(self):
        return hash((self.exps,))

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

    def times(self, other: "Monomial") -> "Monomial":
        exps = dict(self.exps)
        for i, e in other.exps:
            exps[i] = exps.get(i, 0) + e
        # sums of exponents >= 1: nothing to drop or refuse, as from_map would
        return Monomial(tuple(sorted(exps.items())))

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


class SRPolynomial:
    """Rational combination of face-supported monomials, in normal form.

    Construction filters out monomials whose support is not a face and
    drops zero coefficients, so equality of normal forms is term equality.
    A coefficient is an int when it is integral, else a Fraction, never a
    float (``linalg._exact``).  Immutable by convention.
    """

    __slots__ = ("fan", "terms")

    def __init__(self, fan: Fan, terms: tuple[tuple[Monomial, int | Fraction], ...]):
        self.fan = fan
        self.terms = terms

    def __eq__(self, other):
        return NotImplemented if type(other) is not SRPolynomial else (
            (self.fan, self.terms) == (other.fan, other.terms))

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
    empty for odd degrees.  Ordered by descending lex.  Cached on the fan:
    callers must not mutate the list.
    """
    if degree < 0 or degree % 2:
        return []

    def build():
        idxs = cone.ray_indices  # sorted, so each exps tuple comes out sorted
        return sorted((Monomial(tuple((i, e) for i, e in zip(idxs, comp) if e))
                       for comp in _compositions(degree // 2, len(idxs))),
                      key=monomial_sort_key(fan.num_rays))

    return fan.table(("cone basis", cone.ray_indices, degree), build)


def sr_basis(fan: Fan, degree: int) -> list[Monomial]:
    """Monomial basis of the degree slice of the quotient ring.

    All monomials of the given doubled degree whose support is a face,
    in descending lex order.  Cached on the fan: callers must not mutate
    the list.
    """
    if degree < 0 or degree % 2:
        return []

    def build():
        z = degree // 2
        # the monomials whose support is exactly one face: all its exponents >= 1
        return sorted((Monomial.from_map({i: e + 1 for i, e in zip(cone.ray_indices, comp)})
                       for cone in fan.all_cones if z >= cone.dim
                       for comp in _compositions(z - cone.dim, cone.dim)),
                      key=monomial_sort_key(fan.num_rays))

    return fan.table(("sr basis", degree), build)
