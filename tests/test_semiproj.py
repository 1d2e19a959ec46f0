import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import cn_data, load_fan_and_polyhedron
from helpers import random_unimodular
from toriclg import check_semiprojective, degeneration_exponent, parse_fan_file
from toriclg.fan import FanError, fan_from_data
from toriclg.linalg import dot
from toriclg.semiproj import (
    REASON_NOT_CONVEX,
    REASON_NOT_FULL_DIM,
    _certificate_rows,
    _support_convexity_failure,
    adjacent_max_pairs,
    search_certificate,
    solve_inequalities,
    validate_certificate,
)


def fan_json(rank, rays, max_cones, **extra):
    return json.dumps({"rank": rank, "rays": rays, "max_cones": max_cones, **extra})


def p1_cube():
    """(P^1)^3: rays +-e_i, one maximal cone per choice of signs."""
    rays = [[s * int(j == i) for j in range(3)] for i in range(3) for s in (1, -1)]
    cones = [[2 * i + 1 + side for i, side in enumerate(sides)]
             for sides in itertools.product((0, 1), repeat=3)]
    return fan_from_data(3, rays, cones)


def scrambled_p1_power(k, seed):
    """(P^1)^k in random lattice coordinates, with its rays and cones shuffled."""
    rng = random.Random(seed)
    frame = random_unimodular(rng, k)
    rays = [[s * frame[r][i] for r in range(k)] for i in range(k) for s in (1, -1)]  # +-(column i)
    order = rng.sample(range(2 * k), 2 * k)  # new position p holds old ray order[p]
    new_index = {old: p + 1 for p, old in enumerate(order)}
    cones = [[new_index[2 * i + side] for i, side in enumerate(sides)]
             for sides in itertools.product((0, 1), repeat=k)]
    rng.shuffle(cones)
    return fan_from_data(k, [rays[i] for i in order], cones)


def searched_cube_certificate(fan):
    """The searched certificate of (P^1)^3: phi(x) = sum of max(0, -x_i), margin 1 on every wall.

    Pinning it keeps the message tests from following a search whose rows
    changed sign together with the check's.
    """
    functionals = check_semiprojective(fan).certificate.functionals
    assert functionals == tuple(tuple(-s for s in signs)
                                for signs in itertools.product((0, 1), repeat=3))
    return functionals


class TestFourierMotzkin:
    def test_feasible_point_satisfies(self):
        ineqs = [((1, 0), Fraction(1)), ((-1, 0), Fraction(-3)), ((0, 1), Fraction(2)),
                 ((1, 1), Fraction(2))]
        x = solve_inequalities(ineqs, 2)
        assert x is not None
        for c, r in ineqs:
            assert dot(c, x) >= r

    def test_infeasible(self):
        assert solve_inequalities([((1,), Fraction(1)), ((-1,), Fraction(0))], 1) is None

    def test_empty_system(self):
        assert solve_inequalities([], 2) == (0, 0)


class TestCertificates:
    def test_p1_values_forced(self):
        fan, poly = load_fan_and_polyhedron("p1")
        rep = check_semiprojective(fan, poly)
        assert rep.semiprojective
        assert rep.certificate.functionals == ((0,), (-1,))
        assert rep.certificate.value(1) == 0
        assert rep.certificate.value(2) == 1

    def test_not_full_dimensional(self):
        fan, _ = parse_fan_file(fan_json(2, [[1, 0], [-1, 0]], [[1], [2]]))
        rep = check_semiprojective(fan)
        assert not rep.semiprojective
        assert rep.reason == REASON_NOT_FULL_DIM
        assert rep.witnesses

    def test_support_not_convex(self):
        fan, _ = parse_fan_file(fan_json(2, [[1, 0], [0, 1], [-1, 0], [0, -1]],
                                         [[1, 2], [3, 4]]))
        rep = check_semiprojective(fan)
        assert not rep.semiprojective
        assert rep.reason == REASON_NOT_CONVEX

    # (rank, rays, max_cones) -> the witness (facet, ray), recorded with each
    # facet's normal computed as a kernel vector of its rays oriented towards its cone
    @pytest.mark.parametrize("data, facet, ray", [
        ((2, [[1, 0], [0, 1], [-1, 0], [0, -1]], [[1, 2], [3, 4]]), (1,), 4),
        ((2, [[1, 0], [0, 1], [-1, 0], [0, -1]], [[1, 2], [2, 3], [3, 4]]), (1,), 4),
        ((3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0]],
          [[1, 2, 3], [2, 3, 4], [3, 4, 5]]), (1, 3), 5),
        ((2, [[1, 0], [1, 1], [0, 1], [-1, -1]], [[1, 2], [2, 3], [3, 4]]), (1,), 4),
    ])
    def test_support_convexity_witness(self, data, facet, ray):
        found = _support_convexity_failure(fan_from_data(*data))
        assert (found[0].ray_indices, found[1]) == (facet, ray)

    def test_zero_fan_not_semiprojective(self, zero2):
        rep = check_semiprojective(zero2)
        assert not rep.semiprojective
        assert rep.reason == REASON_NOT_FULL_DIM

    def test_suite_certificates(self, suite):
        for name, fan in suite.items():
            rep = check_semiprojective(fan)
            if name == "zero2":
                assert not rep.semiprojective
                continue
            assert rep.semiprojective, name
            assert validate_certificate(fan, [tuple(map(Fraction, f))
                                              for f in rep.certificate.functionals]) is None

    def test_cn_trivial_certificate(self):
        for n in (1, 2, 3, 4):
            fan = fan_from_data(**cn_data(n))
            rep = check_semiprojective(fan)
            assert rep.semiprojective
            assert adjacent_max_pairs(fan) == []

    def test_certificate_integrality_and_margin(self, suite):
        for name, fan in suite.items():
            rep = check_semiprojective(fan)
            if not rep.semiprojective:
                continue
            cert = rep.certificate
            for fun in cert.functionals:
                assert all(isinstance(x, int) for x in fun)
            for a, b in adjacent_max_pairs(fan):
                fa = cert.functionals[fan.max_cones.index(a)]
                fb = cert.functionals[fan.max_cones.index(b)]
                for i in sorted(b.index_set - a.index_set):
                    assert dot(fb, fan.ray(i)) - dot(fa, fan.ray(i)) >= 1

    def test_polyhedron_with_coarser_normal_fan_falls_back_to_search(self, hirzebruch):
        # the unit square's support function is linear across one wall of
        # this fan, hence induces no certificate; the search still finds one
        _, poly = parse_fan_file(fan_json(
            2, [[1, 0], [0, 1], [-1, 1], [0, -1]],
            [[1, 2], [2, 3], [3, 4], [1, 4]],
            polyhedron={"vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
        rep = check_semiprojective(hirzebruch, poly)
        assert rep.semiprojective
        assert rep.reason is None
        assert validate_certificate(hirzebruch, list(rep.certificate.functionals)) is None
        assert rep.certificate == check_semiprojective(hirzebruch).certificate
        assert len(rep.witnesses) == 1 and "does not minimise" in rep.witnesses[0]

    def test_verdict_does_not_depend_on_a_non_inducing_polyhedron(self, p2):
        # a translated orthant has a one-cone normal fan: unbounded on P^2's cones
        _, poly = parse_fan_file(fan_json(
            2, [[1, 0], [0, 1], [-1, -1]], [[1, 2], [2, 3], [1, 3]],
            polyhedron={"vertices": [[0, 0]], "recession_rays": [[1, 0], [0, 1]]}))
        rep = check_semiprojective(p2, poly)
        assert rep.semiprojective
        assert rep.certificate == check_semiprojective(p2).certificate
        assert len(rep.witnesses) == 1 and "unbounded" in rep.witnesses[0]

    def test_continuity_failure_names_the_first_shared_ray(self):
        fan = p1_cube()
        m = [list(f) for f in searched_cube_certificate(fan)]
        m[2][0] += 1  # cone {1,4,5} now disagrees with {1,3,5} and {1,3,6} on ray 1
        assert validate_certificate(fan, m) == \
            "continuity fails on ray 1 shared by {1,3,5} and {1,4,5}"

    def test_strictness_failure_prints_its_margin(self):
        # on a complete fan one covector cannot move without breaking continuity;
        # halving the first coordinate of every covector keeps it and halves the
        # margins across the walls x_1 = 0, which come after those of x_3 = 0
        fan = p1_cube()
        m = [(Fraction(f[0], 2),) + f[1:] for f in searched_cube_certificate(fan)]
        assert validate_certificate(fan, m) == \
            "strict convexity fails across {1,3,5}|{2,3,5} at ray 2 (margin 1/2)"

    def test_certificate_rows_are_sparse_and_the_search_pins_the_first_covector(self):
        fan = scrambled_p1_power(4, seed=7)
        n = fan.rank
        eqs, ineqs, messages = _certificate_rows(fan)
        assert len(fan.max_cones) == 16 and len(messages) == len(eqs) + len(ineqs) > 0
        for row in eqs + [c for c, _ in ineqs]:
            assert 0 < len(row) <= 2 * n and 0 not in row.values()
            assert all(0 <= t < n * len(fan.max_cones) for t in row)
        cert = search_certificate(fan)
        assert cert.functionals[0] == (0,) * n
        assert validate_certificate(fan, cert.functionals) is None

    def test_matching_polyhedron_works(self):
        fan, poly = load_fan_and_polyhedron("p2")
        rep = check_semiprojective(fan, poly)
        assert rep.semiprojective


class TestDegeneration:
    def test_p1(self, p1):
        fan, poly = load_fan_and_polyhedron("p1")
        cert = check_semiprojective(fan, poly).certificate
        rel = degeneration_exponent(fan, cert, fan.cone([1]), 2)
        assert rel.coefficients == (-1,)
        assert rel.exponent == 1
        assert rel.as_string() == "z2 * z1 = t^1"

    def test_blowup(self, blowup):
        cert = check_semiprojective(blowup).certificate
        rel = degeneration_exponent(blowup, cert, blowup.cone([1, 3]), 2)
        assert rel.coefficients == (-1, 1)
        assert rel.exponent >= 1

    def test_cxp1(self, cxp1):
        cert = check_semiprojective(cxp1).certificate
        rel = degeneration_exponent(cxp1, cert, cxp1.cone([1, 2]), 3)
        assert rel.coefficients == (0, -1)
        assert rel.exponent >= 1

    def test_ray_inside_cone_rejected(self, blowup):
        cert = check_semiprojective(blowup).certificate
        with pytest.raises(FanError, match="degenerates"):
            degeneration_exponent(blowup, cert, blowup.cone([1, 3]), 1)

    def test_exponent_positive_everywhere(self, suite):
        for name, fan in suite.items():
            rep = check_semiprojective(fan)
            if not rep.semiprojective:
                continue
            for cone in fan.max_cones:
                for l in range(1, fan.num_rays + 1):
                    if l in cone.index_set:
                        continue
                    rel = degeneration_exponent(fan, rep.certificate, cone, l)
                    assert rel.exponent >= 1
