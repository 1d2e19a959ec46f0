import math
import random
from fractions import Fraction

import pytest

from conftest import FAN_DIR, cn_data, load_fan
from helpers import (
    INLINE_FANS,
    check_axioms,
    inline_fan,
    inline_fan_file,
    lg_degree,
    lg_differential,
    minors_matrix,
    random_unimodular,
    verify_square_zero,
)
from toriclg import (
    build_twisted,
    check_semiprojective,
    degeneration_exponent,
    lg_cohomology,
    log_derivations,
    lsop_check,
    ring_structure,
    sr_basis,
)
from toriclg.cech import CoverSimplex, default_m_max, verify_exactness, verify_quasi_iso
from toriclg.cli import main
from toriclg.fan import Cone, FanError, dual_frame, fan_from_data
from toriclg import cech, linalg, twisted
from toriclg.linalg import LinearSolver, RationalMatrix, cohomology_at
from toriclg.semiproj import _facet_holders, _wall_rows
from toriclg.srring import cone_monomial_basis
from toriclg.twisted import _index_maps, default_t_max, koszul_block, lg_multiply


def random_element(rng, tc, t):
    basis = tc.total_basis(t)
    return {b: Fraction(rng.randint(-3, 3)) for b in basis if rng.random() < 0.6}


class TestLinearForms:
    def test_p1(self, p1):
        assert [str(f) for f in build_twisted(p1).linear_forms] == ["z1 - z2"]

    def test_cn(self):
        for n in (1, 2, 3):
            tc = build_twisted(fan_from_data(**cn_data(n)))
            assert [str(f) for f in tc.linear_forms] == [f"z{i}" for i in range(1, n + 1)]

    def test_cxp1(self, cxp1):
        assert [str(f) for f in build_twisted(cxp1).linear_forms] == ["z1", "z2 - z3"]

    def test_non_unimodular_frame_rejected(self, p2):
        with pytest.raises(FanError, match="unimodular"):
            build_twisted(p2, [[1, 0], [0, 2]])

    @pytest.mark.parametrize("frame", [
        [[1.9, 0], [0, 1]],  # a float is refused, not truncated to 1
        [["1", 0], [0, 1]],
        [[True, 0], [0, 1]],
        [[1, 0], [0]],
        [[1, 1], [-1, 1]],  # det 2
    ])
    def test_frame_must_be_a_unimodular_int_matrix(self, p2, frame):
        with pytest.raises(FanError, match="unimodular"):
            build_twisted(p2, frame)


class TestCohomology:
    def test_cn_concentrated_in_degree_zero(self):
        for n in (1, 2, 3, 4):
            fan = fan_from_data(**cn_data(n))
            dims = lg_cohomology(build_twisted(fan)).dims
            assert dims[0] == 1 and all(d == 0 for d in dims[1:])

    def test_cxp1(self, cxp1):
        assert lg_cohomology(build_twisted(cxp1)).dims == (1, 0, 1, 0, 0, 0, 0)

    def test_zero_fan_exterior_algebra(self):
        for n in (1, 2, 3):
            fan = fan_from_data(n, [], [[]])
            dims = lg_cohomology(build_twisted(fan)).dims
            expect = tuple(math.comb(n, t) for t in range(2 * n + 3))
            assert dims == expect

    def test_square_zero(self, suite):
        for fan in suite.values():
            assert verify_square_zero(build_twisted(fan), 2 * fan.rank + 2)

    def test_even_concentration_complete_fans(self, suite):
        for name in ("p1", "p2", "p1xp1", "hirzebruch1"):
            fan = suite[name]
            dims = lg_cohomology(build_twisted(fan)).dims
            assert all(d == 0 for t, d in enumerate(dims) if t % 2 == 1)
            assert all(d == 0 for t, d in enumerate(dims) if t > 2 * fan.rank)


# Oracles that need no second pipeline, on every fan file and on the fans of
# helpers.INLINE_FANS.
ORACLE_FANS = sorted(p.stem for p in FAN_DIR.glob("*.json")) + sorted(INLINE_FANS)
COMPLETE_FANS = sorted({"p1", "p2", "p1xp1", "hirzebruch1", *INLINE_FANS}
                       - {"C2xP2", "2 quadrants", "2 octants"})


def oracle_fan(name):
    return inline_fan(name) if name in INLINE_FANS else load_fan(name)


@pytest.mark.parametrize("name", ORACLE_FANS)
def test_euler_characteristic_counts_fixed_points(name):
    # chi = sum (-1)^t dim H^t is the number of n-dimensional cones, complete or not
    fan = oracle_fan(name)
    dims = lg_cohomology(build_twisted(fan)).dims
    assert sum((-1) ** t * d for t, d in enumerate(dims)) == sum(c.dim == fan.rank for c in fan.all_cones)


# The quotient R/(forms) against the twisted slots, which are the reference.
NON_REGULAR_FANS = {"zero2", "2 quadrants", "2 octants"}


@pytest.mark.parametrize("t_max", [None, 3, 5, 12], ids=["default", "3", "5", "12"])
@pytest.mark.parametrize("name", sorted(set(ORACLE_FANS) - NON_REGULAR_FANS))
def test_quotient_ring_equals_twisted_ring(name, t_max):
    fan = oracle_fan(name)
    t_max = default_t_max(fan) if t_max is None else t_max
    reference = ring_structure(build_twisted(fan), t_max)
    tc = build_twisted(fan)
    ls = lsop_check(tc)
    assert ls.regular
    ring = ring_structure(tc, t_max, ls)
    assert lg_cohomology(tc, t_max, ls).dims == ring.dims == reference.dims
    assert ring.basis == reference.basis
    assert ring.representatives == reference.representatives
    assert ring.constants == reference.constants
    assert not tc._tables.get(("slots",))  # no twisted slot was built


@pytest.mark.parametrize("name", sorted(NON_REGULAR_FANS))
def test_non_cohen_macaulay_forms_are_no_regular_sequence(name):
    assert not lsop_check(build_twisted(oracle_fan(name))).regular


@pytest.mark.parametrize("name", COMPLETE_FANS)
def test_poincare_duality_of_complete_fans(name):
    fan = oracle_fan(name)
    dims = lg_cohomology(build_twisted(fan)).dims
    middle = dims[:2 * fan.rank + 1]
    assert middle == middle[::-1] and not any(dims[2 * fan.rank + 1:])


class TestDerivationAndProduct:
    def test_leibniz(self, suite):
        rng = random.Random(41)
        for fan in suite.values():
            tc = build_twisted(fan)
            for _ in range(8):
                ta = rng.randint(0, 3)
                tb = rng.randint(0, 3)
                x = random_element(rng, tc, ta)
                y = random_element(rng, tc, tb)
                lhs = lg_differential(tc, lg_multiply(fan, x, y))
                dx_y = lg_multiply(fan, lg_differential(tc, x), y)
                x_dy = lg_multiply(fan, x, lg_differential(tc, y))
                sign = -1 if ta % 2 else 1
                rhs = dict(dx_y)
                for key, v in x_dy.items():
                    rhs[key] = rhs.get(key, Fraction(0)) + sign * v
                rhs = {k: v for k, v in rhs.items() if v != 0}
                assert lhs == rhs, (ta, tb)

    def test_homogeneous_degree(self, p2):
        tc = build_twisted(p2)
        x = {b: Fraction(1) for b in tc.total_basis(3)}
        assert lg_degree(x) == 3
        assert lg_degree(lg_differential(tc, x)) in (4, None)


class TestFrameIndependence:
    def test_dims_agree(self, suite):
        rng = random.Random(43)
        for fan in suite.values():
            base = lg_cohomology(build_twisted(fan), 2 * fan.rank).dims
            for _ in range(3):
                frame = random_unimodular(rng, fan.rank)
                dims = lg_cohomology(build_twisted(fan, frame), 2 * fan.rank).dims
                assert dims == base

    def test_conjugation_by_wedge_power(self, cxp1):
        # the frame complex is the standard complex written in the wedge
        # basis of the frame covectors
        rng = random.Random(47)
        fan = cxp1
        frame = random_unimodular(rng, fan.rank)
        tc_std = build_twisted(fan)
        tc_frm = build_twisted(fan, frame)
        for k in (1, 2):
            for m in (0, 2, 4):
                # change of basis on wedges tensor identity on monomials
                monos = len(sr_basis(fan, m))
                monos2 = len(sr_basis(fan, m + 2))
                ck = minors_matrix(frame, k).transpose()
                ck1 = minors_matrix(frame, k - 1).transpose()

                def widen(c, nm):
                    subs_r = c.rows
                    subs_c = c.cols
                    blocks = {}
                    for (i, j), v in c.entries.items():
                        blocks[(i, j)] = RationalMatrix(nm, nm, {(r, r): v for r in range(nm)})
                    return linalg.block_matrix([nm] * subs_r, [nm] * subs_c, blocks)

                lhs = tc_std.block(k, m) @ widen(ck, monos)
                rhs = widen(ck1, monos2) @ tc_frm.block(k, m)
                assert lhs == rhs


class TestRingStructure:
    def test_p1_truncated_polynomial_ring(self, p1):
        ring = ring_structure(build_twisted(p1))
        assert ring.dims == (1, 0, 1, 0, 0)
        assert ring.basis == ((0, 0), (2, 0))
        assert ring.constants[(2, 0, 2, 0)] == ()  # degree-4 slot is zero
        assert check_axioms(ring) == []

    def test_p2_height_three(self, p2):
        ring = ring_structure(build_twisted(p2))
        assert ring.dims == (1, 0, 1, 0, 1, 0, 0)
        h_sq = ring.constants[(2, 0, 2, 0)]
        assert len(h_sq) == 1 and h_sq[0] != 0
        assert ring.constants[(2, 0, 4, 0)] == ()  # h^3 lives in the zero slot
        assert check_axioms(ring) == []

    def test_unit_row(self, suite):
        for name in ("p1xp1", "hirzebruch1", "blowup_c2"):
            ring = ring_structure(build_twisted(suite[name]))
            assert check_axioms(ring) == []


def spy_on_slots(monkeypatch) -> list[int]:
    """The top total degrees ``twisted.total_cohomology`` is asked to build slots up to."""
    real, asked = twisted.total_cohomology, []

    def total_cohomology(t_max, differential, slots=None):
        asked.append(t_max)
        return real(t_max, differential, slots)

    monkeypatch.setattr(twisted, "total_cohomology", total_cohomology)
    return asked


class TestRingAboveWindow:
    @pytest.mark.parametrize("name", ["P3", "P1^3"])
    def test_certified_ring_builds_no_slot_above_the_window(self, monkeypatch, name):
        # with the report of a regular sequence no twisted slot is built at all,
        # and the constants are those of the twisted slots
        fan = inline_fan(name)
        t_max = default_t_max(fan)
        from_slots = ring_structure(build_twisted(fan), t_max).constants
        tc = build_twisted(fan)
        ls = lsop_check(tc)
        asked = spy_on_slots(monkeypatch)
        ring = ring_structure(tc, t_max, ls)
        assert ls.regular and asked == []
        assert ring.constants == from_slots
        assert any(ta + tb > t_max for ta, _, tb, _ in ring.constants)

    @pytest.mark.parametrize("name", ["zero2", "p2"])
    def test_fallback_builds_the_slots_above_the_window(self, monkeypatch, name):
        # zero2's forms are no regular sequence; P^2 is given no report
        fan, t_max = load_fan(name), 3
        tc = build_twisted(fan)
        ls = lsop_check(tc)
        asked = spy_on_slots(monkeypatch)
        ring_structure(tc, t_max, None if ls.regular else ls)
        assert max(asked) > t_max

    @pytest.mark.parametrize("name, twisted_path", [("P3", False), ("zero2", True)])
    def test_cli_assembles_a_total_differential_only_off_a_regular_sequence(
            self, monkeypatch, capsys, tmp_path, name, twisted_path):
        path = inline_fan_file(tmp_path, name) if name in INLINE_FANS else str(FAN_DIR / f"{name}.json")
        real, calls = twisted.TwistedComplex.total_differential, []

        def total_differential(self, t):
            calls.append(t)
            return real(self, t)

        monkeypatch.setattr(twisted.TwistedComplex, "total_differential", total_differential)
        for ring in ([], ["--ring"]):
            calls.clear()
            assert main(["cohomology", path, *ring, "--json"]) == 0
            assert bool(calls) == twisted_path, ring
        capsys.readouterr()

    @pytest.mark.parametrize("t_max, bad, top_slot", [(6, 4, 6), (6, 8, 8), (3, 4, 4)],
                             ids=["window", "above", "fallback"])
    def test_non_cocycle_product_raises(self, monkeypatch, p2, t_max, bad, top_slot):
        # on the twisted path a product of degree bad is reduced in its slot, in
        # the window or above it, up to the degree of the bad product
        tc = build_twisted(p2)
        real = twisted.lg_multiply

        def lg_multiply(fan, x, y):
            out, t = real(fan, x, y), lg_degree(x) + lg_degree(y)
            if t != bad:
                return out
            # add a basis vector that the differential does not kill
            key = tc.total_basis(t)[min(j for _, j in tc.total_differential(t).entries)]
            return {**out, key: out.get(key, 0) + 1}

        monkeypatch.setattr(twisted, "lg_multiply", lg_multiply)
        asked = spy_on_slots(monkeypatch)
        with pytest.raises(linalg.NoSolutionError):
            ring_structure(tc, t_max)
        assert max(asked) == top_slot


class TestLsop:
    def test_p2(self, p2):
        rep = lsop_check(build_twisted(p2))
        assert rep.regular
        assert rep.dims == (1, 1, 1, 0, 0)

    def test_cxp1(self, cxp1):
        rep = lsop_check(build_twisted(cxp1))
        assert rep.regular
        assert rep.dims == (1, 1, 0, 0, 0)

    def test_hirzebruch(self, hirzebruch):
        rep = lsop_check(build_twisted(hirzebruch))
        assert rep.regular
        assert rep.dims == (1, 2, 1, 0, 0)

    def test_zero_fan_rejected(self, zero2):
        rep = lsop_check(build_twisted(zero2))
        assert not rep.regular  # zero forms are never regular

    def test_quotient_matches_cohomology_dims(self, suite):
        for name in ("p1", "p2", "p1xp1", "hirzebruch1", "blowup_c2", "c_x_p1"):
            fan = suite[name]
            tc = build_twisted(fan)
            rep = lsop_check(tc)
            assert rep.regular, name
            dims = lg_cohomology(tc).dims
            for t, d in enumerate(dims):
                if t % 2 == 0 and t <= rep.max_degree:
                    assert d == rep.dims[t // 2], (name, t)
                elif t % 2 == 1:
                    assert d == 0

    def test_quotient_ring_constants_match(self, p2, cxp1, hirzebruch):
        # transport the quotient presentation into the twisted complex and
        # compare products; the embedding of polynomial degree m at
        # exterior degree zero occupies the first coordinates at total
        # degree m
        for fan in (p2, cxp1, hirzebruch):
            tc = build_twisted(fan)
            rep = lsop_check(tc)
            coh = lg_cohomology(tc, 2 * rep.max_degree)
            # the quotient R/(forms) in degree m: the cokernel of block (1, m - 2)
            slots = {m: cohomology_at(tc.block(1, m - 2), RationalMatrix.zeros(0, len(tc.basis(0, m))))
                     for m in range(0, rep.max_degree + 1, 2)}
            assert tuple(slot.dim for slot in slots.values()) == rep.dims

            def columns(rows, *vecs):
                # the vectors as columns, padded with zeros to length rows
                return RationalMatrix.from_columns(
                    [list(v) + [0] * (rows - len(v)) for v in vecs], rows=rows)

            def cols_of(m):
                return [m.column(j) for j in range(m.cols)]

            for ma in range(0, rep.max_degree + 1, 2):
                for mb in range(0, rep.max_degree + 1, 2):
                    if ma + mb > rep.max_degree:
                        continue
                    sa, sb, st = slots[ma], slots[mb], slots[ma + mb]
                    basis_a = sr_basis(fan, ma)
                    basis_b = sr_basis(fan, mb)
                    basis_t = sr_basis(fan, ma + mb)
                    idx_t = {mono: i for i, mono in enumerate(basis_t)}
                    total = len(tc.total_basis(ma + mb))
                    change = cols_of(coh.slots[ma + mb].reduce(columns(total, *cols_of(st.representatives))))
                    for ra in cols_of(sa.representatives):
                        for rb in cols_of(sb.representatives):
                            prod = [Fraction(0)] * len(basis_t)
                            for i, ca in enumerate(ra):
                                if not ca:
                                    continue
                                for j, cb in enumerate(rb):
                                    if not cb:
                                        continue
                                    mono = basis_a[i].times(basis_b[j])
                                    if fan.is_face(mono.support):
                                        prod[idx_t[mono]] += ca * cb
                            (q_coords,) = cols_of(st.reduce(columns(len(prod), prod)))
                            (lg_coords,) = cols_of(coh.slots[ma + mb].reduce(columns(total, prod)))
                            transported = [Fraction(0)] * len(lg_coords)
                            for c, col in zip(q_coords, change):
                                for t_i, v in enumerate(col):
                                    transported[t_i] += c * v
                            assert tuple(transported) == lg_coords


class TestDerivationPresentation:
    def test_cxp1(self, cxp1):
        pres = log_derivations(cxp1, cxp1.cone([1, 2]))
        assert pres.coefficients == ((0, -1),)
        assert [str(f) for f in pres.differential_coeffs] == ["z1", "z2 - z3"]
        assert (pres.base, pres.extra) == ((1, 2), (3,))

    def test_cn(self):
        fan = fan_from_data(**cn_data(3))
        pres = log_derivations(fan, fan.cone([1, 2, 3]))
        assert pres.extra == ()
        assert [str(f) for f in pres.differential_coeffs] == ["z1", "z2", "z3"]

    def test_blowup(self, blowup):
        pres = log_derivations(blowup, blowup.cone([1, 3]))
        assert pres.coefficients == ((-1, 1),)
        assert [str(f) for f in pres.differential_coeffs] == ["z1 - z2", "z2 + z3"]

    def test_low_dimensional_cone_rejected(self, blowup):
        with pytest.raises(FanError, match="full-dimensional"):
            log_derivations(blowup, blowup.cone([3]))

    def test_every_max_cone(self, suite):
        for name, fan in suite.items():
            if name == "zero2":
                continue
            for cone in fan.max_cones:
                pres = log_derivations(fan, cone)
                assert pres.checked_degree == default_t_max(fan)

    def test_changed_coordinate_is_a_mismatch(self, monkeypatch):
        fan = load_fan("hirzebruch1")
        cone = fan.max_cones[0]
        changed = next(i for i in range(1, fan.num_rays + 1) if i not in cone.index_set)
        real = twisted.ray_coordinates_in_cone_basis

        def off_by_one(fan, cone, ray_index):
            coords = real(fan, cone, ray_index)
            return (coords[0] + 1,) + coords[1:] if ray_index == changed else coords

        monkeypatch.setattr(twisted, "ray_coordinates_in_cone_basis", off_by_one)
        with pytest.raises(FanError, match="presentation mismatch"):
            log_derivations(fan, cone)

    # every fan in fans/ but the zero fan is semi-projective
    @pytest.mark.parametrize("name", sorted(p.stem for p in FAN_DIR.glob("*.json") if p.stem != "zero2"))
    def test_presented_blocks_equal_the_frame_blocks(self, name):
        # log_derivations compares forms; the Koszul blocks those forms
        # give must then agree in every slot up to checked_degree = 2n + 2
        fan = load_fan(name)
        assert check_semiprojective(fan).semiprojective
        for cone in fan.max_cones:
            if cone.dim != fan.rank:
                continue
            pres = log_derivations(fan, cone)
            tc = build_twisted(fan, pres.frame)
            for t in range(2 * fan.rank + 3):
                for k, m in tc.total_blocks(t):
                    if k >= 1:
                        assert koszul_block(fan, pres.differential_coeffs, k, m) == tc.block(k, m), \
                            (name, cone, k, m)


class TestLocalKoszul:
    def test_subfan_cohomology_is_annihilator_wedge(self, suite):
        # for a single smooth cone the twisted complex retracts onto the
        # wedge algebra of the cone annihilator
        for name, fan in suite.items():
            for cone in fan.all_cones:
                if cone.dim == 0 and fan.num_rays > 0:
                    continue
                rays = [list(fan.ray(i)) for i in cone.ray_indices]
                sub = fan_from_data(fan.rank, rays,
                                    [list(range(1, cone.dim + 1))] if cone.dim else [[]])
                dims = lg_cohomology(build_twisted(sub), fan.rank + 1).dims
                expect = tuple(math.comb(fan.rank - cone.dim, t)
                               for t in range(fan.rank + 2))
                assert dims == expect, (name, cone)


# The assembled Koszul blocks against the element-level differential of
# helpers.lg_differential, which multiplies monomials and tests faces term by
# term instead of reading index maps.
@pytest.mark.parametrize("name", ORACLE_FANS)
def test_blocks_match_element_differential(name):
    fan = oracle_fan(name)
    tc = build_twisted(fan)
    n = fan.rank
    for m in range(0, 2 * n + 5, 2):
        for k in range(1, n + 1):
            columns: dict = {}
            for (i, j), v in tc.block(k, m).entries.items():
                columns.setdefault(j, {})[i] = v
            row = {b: i for i, b in enumerate(tc.basis(k - 1, m + 2))}
            for j, b in enumerate(tc.basis(k, m)):
                want = {row[key]: v for key, v in lg_differential(tc, {b: 1}).items()}
                assert columns.get(j, {}) == want, (name, k, m, j)


def fresh_table(fan, key):
    """Recompute one entry of fan._tables on another fan."""
    kind, *args = key
    if kind == "sr basis":
        return sr_basis(fan, *args)
    if kind == "cone basis":
        return cone_monomial_basis(fan, Cone(args[0]), args[1])
    if kind == "frame":
        return dual_frame(fan.rays, Cone(args[0]))
    if kind == "coords":
        frame = dual_frame(fan.rays, Cone(args[0]))
        return tuple(tuple(sum(f * x for f, x in zip(row, ray)) for row in frame) for ray in fan.rays)
    if kind == "facet holders":
        return _facet_holders(fan)
    if kind == "wall rows":
        return _wall_rows(fan)
    assert kind == "koszul maps", key
    return _index_maps(fan, None if args[0] is None else tuple(map(Cone, args[0])), args[1])


def test_cached_tables_survive_every_job():
    # a caller that mutated a shared basis or index map would change it here
    fan = oracle_fan("P3")
    cs = CoverSimplex(fan)
    verify_exactness(cs, 2 * fan.rank + 4)
    assert verify_quasi_iso(cs).agree
    tc = build_twisted(fan)
    ring_structure(tc)
    lsop_check(tc)
    for cone in fan.max_cones:
        log_derivations(fan, cone)
    cert = check_semiprojective(fan).certificate
    for cone in fan.max_cones:
        for ray in range(1, fan.num_rays + 1):
            if ray not in cone.index_set:
                degeneration_exponent(fan, cert, cone, ray)
    assert {key[0] for key in fan._tables} == {"sr basis", "cone basis", "koszul maps",
                                                "frame", "coords", "facet holders", "wall rows"}
    fresh = oracle_fan("P3")
    for key, value in fan._tables.items():
        assert value == fresh_table(fresh, key), key


def spy_calls(monkeypatch, builders) -> dict:
    """Count the calls of each (owner, name) in builders."""
    calls = {}
    for owner, name in builders:
        def spy(*args, _build=getattr(owner, name), _key=(owner, name), **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _build(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    return calls


def assert_built_once(monkeypatch, owner, builders, job):
    # a second job on the same object reads every table the first one built
    calls = spy_calls(monkeypatch, builders)
    job()
    first, tables = dict(calls), dict(owner._tables)
    assert set(first) == set(builders)
    job()
    assert calls == first
    assert owner._tables.keys() == tables.keys()
    assert all(owner._tables[key] is value for key, value in tables.items())
    return first


@pytest.mark.parametrize("name", ["p2", "S7"])
def test_cover_tables_are_built_once(monkeypatch, name):
    cs = CoverSimplex(oracle_fan(name))
    builders = [(cech, "kernel_basis"), (LinearSolver, "__init__"), (cech, "koszul_block"),
                (cech, "build_twisted"), (cech, "total_matrix"),
                (twisted, "koszul_block"), (linalg, "block_matrix")]
    first = assert_built_once(monkeypatch, cs, builders, lambda: (
        verify_exactness(cs, default_m_max(cs.fan)), verify_quasi_iso(cs)))
    # one identity-frame twisted complex serves the verticals' forms and the twisted dims
    assert first[(cech, "build_twisted")] == 1


def test_twisted_tables_are_built_once(monkeypatch, zero2):
    tc = build_twisted(zero2)
    builders = [(twisted, "koszul_block"), (linalg, "block_matrix"), (twisted, "cohomology_at")]
    assert_built_once(monkeypatch, tc, builders, lambda: (lg_cohomology(tc), ring_structure(tc)))
