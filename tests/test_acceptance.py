"""End-to-end acceptance checks: exact values, cross-pipeline agreement,
constructive algorithms, and bulk randomized properties.

Each test prints one PASS line; tolerances are exact (integer/rational
equality) throughout, with wall-clock budgets where stated.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import SUITE_NAMES, cn_data, load_fan_and_polyhedron
from cech_helpers import cochain_delta, cochain_to_vector, glue_sections, split_cocycle
from helpers import (
    lg_differential,
    random_closed_cochain,
    random_cochain,
    random_polynomial,
    random_unimodular,
)
from toriclg import (
    build_twisted,
    check_semiprojective,
    constant_total_cohomology,
    cup,
    degeneration_exponent,
    forms_total_cohomology,
    lg_cohomology,
    log_derivations,
    lsop_check,
    restrict,
    ring_structure,
    verify_exactness,
)
from toriclg import linalg
from toriclg.cech import TAG_CONST, TAG_FORMS, CoverSimplex
from toriclg.fan import fan_from_data
from toriclg.twisted import lg_multiply


def announce(tag: str, detail: str):
    print(f"\n[acceptance] PASS {tag}: {detail}")


@pytest.fixture(scope="module")
def covers(suite):
    return {name: CoverSimplex(fan) for name, fan in suite.items()}


def test_criterion_affine_spaces_trivial_cohomology():
    # affine coordinate spaces up to rank 4: cohomology concentrated in
    # degree zero, each under a second
    for n in (1, 2, 3, 4):
        fan = fan_from_data(**cn_data(n))
        start = time.monotonic()
        dims = lg_cohomology(build_twisted(fan)).dims
        elapsed = time.monotonic() - start
        assert dims[0] == 1 and all(d == 0 for d in dims[1:]), n
        assert elapsed < 1.0, f"rank {n} took {elapsed:.2f}s"
    announce("affine-spaces", "dims (1,0,...) for ranks 1..4, each < 1s")


def test_criterion_line_times_projective_line(suite):
    start = time.monotonic()
    fan = suite["c_x_p1"]
    tc = build_twisted(fan)
    dims = lg_cohomology(tc).dims
    assert dims == (1, 0, 1, 0, 0, 0, 0)
    ring = ring_structure(tc)
    assert ring.basis == ((0, 0), (2, 0))
    assert ring.constants[(2, 0, 2, 0)] == ()  # h.h = 0: target slot is zero
    assert ring.dims[4] == 0
    ls = lsop_check(tc)
    assert ls.regular
    assert [str(f) for f in tc.linear_forms] == ["z1", "z2 - z3"]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    announce("line-x-p1", "dims (1,0,1), h^2 = 0, regular sequence (z1, z2-z3)")


def test_criterion_degeneration_of_projective_line():
    fan, poly = load_fan_and_polyhedron("p1")
    rep = check_semiprojective(fan, poly)
    assert rep.semiprojective
    rel = degeneration_exponent(fan, rep.certificate, fan.cone([1]), 2)
    assert rel.exponent == 1
    assert rel.coefficients == (-1,)
    assert rel.as_string() == "z2 * z1 = t^1"
    dims = lg_cohomology(build_twisted(fan)).dims
    assert dims == (1, 0, 1, 0, 0)
    announce("p1-degeneration", "z1 z2 = t^1 from the unit segment; dims (1,0,1)")


def test_criterion_cover_complex_exactness(covers):
    start = time.monotonic()
    for name in SUITE_NAMES:
        rep = verify_exactness(covers[name], 8)
        assert rep.exact, name
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    announce("cover-exactness", f"augmented complex exact for m <= 8 on all "
                                f"{len(SUITE_NAMES)} fans in {elapsed:.1f}s")


def test_criterion_three_pipelines_agree(suite, covers):
    for name in SUITE_NAMES:
        fan = suite[name]
        cs = covers[name]
        t_max = 2 * fan.rank + 2
        a = lg_cohomology(build_twisted(fan), t_max).dims
        b = forms_total_cohomology(cs, t_max).dims
        c = constant_total_cohomology(cs, t_max).dims
        assert a == b == c, (name, a, b, c)
    announce("pipeline-agreement", "twisted, double-complex and constant-forms "
                                   "dims agree on the whole suite")


def test_criterion_presentation_matrix_equality(suite):
    checked = 0
    for name in SUITE_NAMES:
        fan = suite[name]
        if not check_semiprojective(fan).semiprojective:
            continue
        for cone in fan.max_cones:
            assert cone.dim == fan.rank
            log_derivations(fan, cone)  # raises on any slot mismatch
            checked += 1
    assert checked >= 14
    announce("derivation-presentation", f"coefficient/differential match for "
                                        f"{checked} full-dimensional cones")


def test_criterion_glue_and_split(suite, covers):
    start = time.monotonic()
    rng = random.Random(20260810)
    glue_count = 0
    split_count = 0
    for name in SUITE_NAMES:
        fan = suite[name]
        cs = covers[name]
        for _ in range(100):
            g = random_polynomial(rng, fan)
            comps = [restrict(g, cone) for cone in cs.cover]
            glued = glue_sections(cs, comps)
            for comp, cone in zip(comps, cs.cover):
                assert restrict(glued, cone) == comp
            glue_count += 1
        ps = range(1, min(3, cs.size - 1) + 1)
        ms = (0, 2, 4, 6)
        combos = [(p, m) for p in ps for m in ms]
        if not combos:
            continue
        per_combo = -(-100 // len(combos))  # ceil
        for p, m in combos:
            for _ in range(per_combo):
                g = random_closed_cochain(rng, cs, TAG_FORMS, p, 0, m)
                h = split_cocycle(cs, g)
                assert cochain_to_vector(cs, cochain_delta(cs, h)) == cochain_to_vector(cs, g)
                split_count += 1
    elapsed = time.monotonic() - start
    assert glue_count == 100 * len(SUITE_NAMES)
    assert split_count >= 100 * (len(SUITE_NAMES) - 1)  # the point cover has no p >= 1
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    announce("glue-and-split", f"{glue_count} gluings and {split_count} splittings "
                               f"verified exactly in {elapsed:.1f}s")


def test_criterion_classical_values(suite):
    # golden dims, each cross-confirmed against the quotient presentation
    golden = {
        "p2": (1, 0, 1, 0, 1, 0, 0),
        "hirzebruch1": (1, 0, 2, 0, 1, 0, 0),
        "blowup_c2": (1, 0, 1, 0, 0, 0, 0),
    }
    for name, expect in golden.items():
        fan = suite[name]
        tc = build_twisted(fan)
        dims = lg_cohomology(tc).dims
        assert dims == expect, name
        ls = lsop_check(tc)
        assert ls.regular, name
        quotient_as_total = tuple(
            ls.dims[t // 2] if t % 2 == 0 and t // 2 < len(ls.dims) else 0
            for t in range(len(expect)))
        assert quotient_as_total == expect, name
    ring = ring_structure(build_twisted(suite["p2"]))
    h_sq = ring.constants[(2, 0, 2, 0)]
    assert len(h_sq) == 1 and h_sq[0] != 0      # h^2 spans the top class
    assert ring.constants[(2, 0, 4, 0)] == ()   # h^3 = 0
    announce("classical-values", "p2 (1,0,1,0,1) with h^3 = 0; hirzebruch (1,0,2,0,1); "
                                 "blowup (1,0,1); all match the quotient oracle")


def test_criterion_randomized_property_sweep(suite, covers):
    rng = random.Random(987654321)
    cases = 0
    failures = 0

    def check(ok):
        nonlocal cases, failures
        cases += 1
        if not ok:
            failures += 1

    tcs = {name: build_twisted(fan) for name, fan in suite.items()}

    def random_element(tc, t):
        return {b: Fraction(rng.randint(-3, 3)) for b in tc.total_basis(t)
                if rng.random() < 0.6}

    # twisted differential squares to zero on random elements
    for _ in range(200):
        name = rng.choice(SUITE_NAMES)
        tc = tcs[name]
        x = random_element(tc, rng.randint(0, 4))
        check(lg_differential(tc, lg_differential(tc, x)) == {})

    # horizontal differential squares to zero on random cochains
    for _ in range(200):
        name = rng.choice(SUITE_NAMES)
        cs = covers[name]
        tag, functions = rng.choice(((TAG_FORMS, True), (TAG_FORMS, False), (TAG_CONST, False)))
        k = 0 if functions else rng.randint(0, cs.fan.rank)
        m = 0 if tag == TAG_CONST else rng.choice((0, 2, 4))
        p = rng.randint(0, max(0, cs.size - 2))
        c = random_cochain(rng, cs, tag, p, k, m)
        dd = cochain_delta(cs, cochain_delta(cs, c))
        check(not any(cochain_to_vector(cs, dd)))

    # total differential squares to zero on random total vectors
    for _ in range(100):
        name = rng.choice(SUITE_NAMES)
        cs = covers[name]
        t = rng.randint(0, 4)
        dim = sum(cs.slot_layout(TAG_FORMS, *b)[0] for b in cs.total_blocks(TAG_FORMS, t))
        vec = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        once = cs.forms_total_matrix(t).mul_vec(vec)
        check(not any(cs.forms_total_matrix(t + 1).mul_vec(once)))

    # Leibniz for the twisted differential
    for _ in range(150):
        name = rng.choice(SUITE_NAMES)
        tc = tcs[name]
        ta, tb = rng.randint(0, 3), rng.randint(0, 3)
        x = random_element(tc, ta)
        y = random_element(tc, tb)
        lhs = lg_differential(tc, lg_multiply(tc.fan, x, y))
        rhs = dict(lg_multiply(tc.fan, lg_differential(tc, x), y))
        sign = -1 if ta % 2 else 1
        for key, v in lg_multiply(tc.fan, x, lg_differential(tc, y)).items():
            rhs[key] = rhs.get(key, Fraction(0)) + sign * v
        check(lhs == {k: v for k, v in rhs.items() if v != 0})

    # Leibniz for the cup product
    for _ in range(150):
        name = rng.choice([n for n in SUITE_NAMES if covers[n].size >= 2])
        cs = covers[name]
        tag = rng.choice((TAG_FORMS, TAG_CONST))
        functions = tag == TAG_FORMS  # forms of exterior degree 0
        ka = 0 if functions else rng.randint(0, 1)
        kb = 0 if functions else rng.randint(0, 1)
        ma = rng.choice((0, 2)) if functions else 0
        mb = rng.choice((0, 2)) if functions else 0
        pa = rng.randint(0, min(1, cs.size - 2))
        pb = rng.randint(0, min(1, cs.size - 2))
        a = random_cochain(rng, cs, tag, pa, ka, ma)
        b = random_cochain(rng, cs, tag, pb, kb, mb)
        lhs = cochain_to_vector(cs, cochain_delta(cs, cup(cs, a, b)))
        t1 = cochain_to_vector(cs, cup(cs, cochain_delta(cs, a), b))
        t2 = cochain_to_vector(cs, cup(cs, a, cochain_delta(cs, b)))
        sign = -1 if (pa + ka) % 2 else 1
        check(lhs == linalg.add_vectors(t1, linalg.scale_vector(sign, t2)))

    # cohomology dims do not depend on the covector frame
    base_dims = {name: lg_cohomology(tcs[name], suite[name].rank + 2).dims
                 for name in SUITE_NAMES}
    for _ in range(50):
        name = rng.choice(SUITE_NAMES)
        fan = suite[name]
        frame = random_unimodular(rng, fan.rank)
        dims = lg_cohomology(build_twisted(fan, frame), fan.rank + 2).dims
        check(dims == base_dims[name])

    # restriction is functorial and multiplicative on random data
    for _ in range(150):
        name = rng.choice(SUITE_NAMES)
        fan = suite[name]
        a = rng.choice(fan.all_cones)
        b = rng.choice(fan.all_cones)
        overlap = fan.cone(a.index_set & b.index_set)
        p = random_polynomial(rng, fan)
        q = random_polynomial(rng, fan)
        ok = restrict(restrict(p, a), overlap) == restrict(p, overlap)
        ok = ok and restrict(p * q, a) == restrict(p, a) * restrict(q, a)
        check(ok)

    assert cases >= 1000
    assert failures == 0
    announce("property-sweep", f"{cases} randomized cases, {failures} failures")
