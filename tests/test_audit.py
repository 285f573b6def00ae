"""The invariance audit against a per-pair reference, against broken
transformation laws, and by the work one snapshot does."""

import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest

from siefring_kit import audit, core
from siefring_kit import intersection as xn
from siefring_kit.core import (
    CoverData,
    CurveClass,
    OrbitData,
    PunctureSpec,
    RelativePairing,
    Scene,
    TrivializationShift,
    euler_char,
    shift_scene,
    sign_factor,
)
from siefring_kit.errors import InconsistencyError, InputError

from scenegen import random_scene, random_shift

# -- reference: every sum walks the punctures, one pair at a time ------------


def ref_factor(sign):
    return 1 if sign == "+" else -1


def ref_signed_ends(scene, curve):
    """(factor, orbit id, k, end bound, CZ index) for every puncture, read
    off the cover table: alpha_- bounds a positive end, alpha_+ a negative
    one, and CZ = alpha_- + alpha_+."""
    for p in curve.punctures:
        cover = scene.orbit(p.orbit).cover_table[p.multiplicity]
        bound = cover.alpha_minus if p.sign == "+" else cover.alpha_plus
        cz = cover.alpha_minus + cover.alpha_plus
        yield ref_factor(p.sign), p.orbit, p.multiplicity, bound, cz


def ref_shared_ends(u, v):
    for pu in u.punctures:
        for pv in v.punctures:
            if pu.sign == pv.sign and pu.orbit == pv.orbit:
                yield pu.sign, pu.orbit, pu.multiplicity, pv.multiplicity


def ref_shift_scene(scene, shift):
    for oid in shift.shifts:
        scene.orbit(oid)
    m = {o.id: shift.shifts.get(o.id, 0) for o in scene.orbits}
    orbits = tuple(
        OrbitData(
            o.id,
            {
                k: CoverData(c.alpha_minus - k * m[o.id], c.alpha_plus - k * m[o.id])
                for k, c in o.cover_table.items()
            },
        )
        for o in scene.orbits
    )
    curves = tuple(
        dataclasses.replace(
            c, rel_c1=c.rel_c1 + sum(s * k * m[o] for s, o, k, _, _ in ref_signed_ends(scene, c))
        )
        for c in scene.curves
    )
    entries = {
        (u, v): value
        + sum(
            ref_factor(sign) * m[oid] * k * k2
            for sign, oid, k, k2 in ref_shared_ends(scene.curve(u), scene.curve(v))
        )
        for (u, v), value in scene.pairing.entries.items()
    }
    return Scene(orbits, curves, RelativePairing(entries))


def ref_star(scene, u_id, v_id):
    total = scene.pairing.get(u_id, v_id)
    for sign, oid, k, m in ref_shared_ends(scene.curve(u_id), scene.curve(v_id)):
        s, orbit = sign_factor(sign), scene.orbit(oid)
        total -= min(-s * k * orbit.cover(m).end_bound(s), -s * m * orbit.cover(k).end_bound(s))
    return total


def ref_sums(scene, u):
    ends = list(ref_signed_ends(scene, u))
    c_n = u.rel_c1 - euler_char(u) + sum(s * bound for s, _, _, bound, _ in ends)
    index = (
        (u.ambient_dim_half - 3) * euler_char(u)
        + 2 * u.rel_c1
        + sum(s * cz for s, _, _, _, cz in ends)
    )
    return c_n, index, sum(math.gcd(k, bound) for _, _, k, bound, _ in ends)


def ref_defect(scene, u_id):
    u = scene.curve(u_id)
    c_n, _, sigma_total = ref_sums(scene, u)
    numerator = ref_star(scene, u_id, u_id) - c_n - (sigma_total - len(u.punctures))
    if numerator % 2 != 0:
        raise InconsistencyError(f"inconsistent scene (parity): curve {u_id!r}")
    if numerator < 0:
        raise InconsistencyError(
            f"inconsistent scene (positivity): data cannot represent a simple curve {u_id!r}"
        )
    return numerator // 2


def ref_curve_report(scene, u_id):
    u = scene.curve(u_id)
    c_n, index, sigma_total = ref_sums(scene, u)
    report = {
        "curve": u_id,
        "chi": euler_char(u),
        "index": index,
        "c_N": c_n,
        "sigma_bar_total": sigma_total,
        "foliation": xn.foliation_criteria(scene, u_id).as_dict(),
    }
    if u.ambient_dim_half == 2:
        report["automatic_transversality"] = index > c_n
    if scene.pairing.has(u_id, u_id):
        report["star_self"] = ref_star(scene, u_id, u_id)
        report["adjunction_defect"] = ref_defect(scene, u_id)
    return report


def ref_snapshot(scene):
    snap = {}
    for orbit in scene.orbits:
        for k in orbit.cover_table:
            cover = orbit.cover(k)
            snap[f"parity[{orbit.id}^{k}]"] = cover.parity()
            snap[f"sigma_bar-[{orbit.id}^{k}]"] = cover.sigma_bar(k, -1)
            snap[f"sigma_bar+[{orbit.id}^{k}]"] = cover.sigma_bar(k, 1)
    for curve in scene.curves:
        cid = curve.id
        c_n, index, sigma_total = ref_sums(scene, curve)
        snap[f"chi[{cid}]"] = euler_char(curve)
        snap[f"index[{cid}]"] = index
        snap[f"c_N[{cid}]"] = c_n
        snap[f"sigma_bar_total[{cid}]"] = sigma_total
        if scene.pairing.has(cid, cid):
            try:
                snap[f"adjunction_defect[{cid}]"] = ("value", ref_defect(scene, cid))
            except InconsistencyError as exc:
                snap[f"adjunction_defect[{cid}]"] = ("inconsistent", str(exc))
    for (u, v) in scene.pairing.entries:
        snap[f"star[{u},{v}]"] = ref_star(scene, u, v)
    return snap


def report_or_error(fn, *args):
    try:
        return fn(*args)
    except InconsistencyError as exc:
        return str(exc)


def without_rel_c1_law(scene, shift):
    """A broken law: the windings and pairing entries move, rel_c1 does not."""
    shifted = shift_scene(scene, shift)
    curves = tuple(
        dataclasses.replace(c, rel_c1=scene.curve(c.id).rel_c1) for c in shifted.curves
    )
    return Scene(shifted.orbits, curves, shifted.pairing)


def without_bullet_law(scene, shift):
    """A broken law: the windings and rel_c1 move, the pairing entries do not."""
    shifted = shift_scene(scene, shift)
    return Scene(shifted.orbits, shifted.curves, scene.pairing)


# the benchmark's four scene sizes (orbits, curves, punctures per curve) as
# maxima, then the property tests' default maxima
SCENE_SIZES = ((3, 4, 4), (4, 5, 5), (5, 6, 5), (6, 8, 6), (3, 3, 4))


def seeded_scenes(rng, count_per_size):
    return [random_scene(rng, *size) for size in SCENE_SIZES for _ in range(count_per_size)]


class TestGroupedEndsMatchPerPairReference:
    def test_shift_star_and_reports_on_300_scenes(self):
        rng = np.random.default_rng(41)
        for scene in seeded_scenes(rng, 60):
            shift = random_shift(rng, scene)
            assert shift_scene(scene, shift) == ref_shift_scene(scene, shift)
            ids = [c.id for c in scene.curves]
            for u in ids:
                assert report_or_error(xn.curve_report, scene, u) == report_or_error(
                    ref_curve_report, scene, u
                )
                # the counted index, expanded by its counts, is the punctures' multiset
                ends = scene.curve(u).ends
                assert all(n >= 1 for covers in ends.values() for n in covers.values())
                assert sorted(
                    (sign, oid, k)
                    for (sign, oid), covers in ends.items()
                    for k, n in covers.items()
                    for _ in range(n)
                ) == sorted((p.sign, p.orbit, p.multiplicity) for p in scene.curve(u).punctures)
                for v in ids:
                    assert xn.star(scene, u, v) == ref_star(scene, u, v)

    @pytest.mark.parametrize("law", [None, without_rel_c1_law, without_bullet_law])
    def test_audit_report_on_300_scenes(self, monkeypatch, law):
        # the reference audit runs the same trial loop with the per-pair law
        # and snapshot; a broken law replaces the law on both sides, so the
        # breaches it causes are compared too
        rng = np.random.default_rng(43)
        scenes = [(scene, int(rng.integers(0, 2**31))) for scene in seeded_scenes(rng, 60)]
        if law is not None:
            monkeypatch.setattr(audit, "shift_scene", law)
        reports = [audit.audit_scene(scene, shifts=6, seed=seed) for scene, seed in scenes]
        monkeypatch.setattr(audit, "shift_scene", law or ref_shift_scene)
        monkeypatch.setattr(audit, "_snapshot", ref_snapshot)
        refs = [audit.audit_scene(scene, shifts=6, seed=seed) for scene, seed in scenes]
        assert reports == refs
        breaches = sum(len(r["breaches"]) for r in reports)
        assert (breaches == 0) == (law is None)


# -- a broken law is caught ---------------------------------------------------


def one_end_scene():
    """One positive end on a simple odd orbit, alpha = (0, 1): index 0,
    c_N = -1, star(u,u) = -1 and adjunction defect 0."""
    orbit = OrbitData("g", {1: CoverData(0, 1)})
    curve = CurveClass("u", 0, (PunctureSpec("+", "g", 1),), 0)
    return Scene((orbit,), (curve,), RelativePairing({("u", "u"): -1}))


def breach(trial, quantity, baseline, shifted, m):
    return {
        "trial": trial,
        "quantity": quantity,
        "baseline": baseline,
        "shifted": shifted,
        "twist": {"g": m},
    }


PARITY = "('inconsistent', \"inconsistent scene (parity): curve 'u'\")"
POSITIVITY = (
    "('inconsistent', \"inconsistent scene (positivity): data cannot represent "
    "a simple curve 'u'\")"
)


class TestBrokenLawIsCaught:
    # seed 0 draws the twists 1, 1, -5, -1, 3, 2 at the one orbit; with the
    # true law all six trials pass
    def test_true_law_passes(self):
        assert audit.audit_scene(one_end_scene(), shifts=6, seed=0) == {
            "trials": 6,
            "breaches": [],
        }

    def test_law_without_rel_c1_correction(self, monkeypatch):
        # a twist m leaves rel_c1 at 0 while the windings fall by m:
        # index -2m, c_N -1 - m, defect numerator m, which is odd (parity)
        # for m = 1, -5, -1, 3 and gives the value m / 2 = 1 for m = 2
        monkeypatch.setattr(audit, "shift_scene", without_rel_c1_law)
        report = audit.audit_scene(one_end_scene(), shifts=6, seed=0)
        assert report == {
            "trials": 6,
            "breaches": [
                breach(0, "index[u]", "0", "-2", 1),
                breach(0, "c_N[u]", "-1", "-2", 1),
                breach(0, "adjunction_defect[u]", "('value', 0)", PARITY, 1),
                breach(1, "index[u]", "0", "-2", 1),
                breach(1, "c_N[u]", "-1", "-2", 1),
                breach(1, "adjunction_defect[u]", "('value', 0)", PARITY, 1),
                breach(2, "index[u]", "0", "10", -5),
                breach(2, "c_N[u]", "-1", "4", -5),
                breach(2, "adjunction_defect[u]", "('value', 0)", PARITY, -5),
                breach(3, "index[u]", "0", "2", -1),
                breach(3, "c_N[u]", "-1", "0", -1),
                breach(3, "adjunction_defect[u]", "('value', 0)", PARITY, -1),
                breach(4, "index[u]", "0", "-6", 3),
                breach(4, "c_N[u]", "-1", "-4", 3),
                breach(4, "adjunction_defect[u]", "('value', 0)", PARITY, 3),
                breach(5, "index[u]", "0", "-4", 2),
                breach(5, "c_N[u]", "-1", "-3", 2),
                breach(5, "adjunction_defect[u]", "('value', 0)", "('value', 1)", 2),
            ],
        }

    def test_law_without_bullet_correction(self, monkeypatch):
        # a twist m leaves u . u at -1 while omega(u, u) becomes m:
        # star(u, u) -1 - m, defect numerator -m, which is odd (parity) for
        # m = 1, -5, -1, 3 and negative (positivity) for m = 2
        monkeypatch.setattr(audit, "shift_scene", without_bullet_law)
        report = audit.audit_scene(one_end_scene(), shifts=6, seed=0)
        assert report == {
            "trials": 6,
            "breaches": [
                breach(0, "adjunction_defect[u]", "('value', 0)", PARITY, 1),
                breach(0, "star[u,u]", "-1", "-2", 1),
                breach(1, "adjunction_defect[u]", "('value', 0)", PARITY, 1),
                breach(1, "star[u,u]", "-1", "-2", 1),
                breach(2, "adjunction_defect[u]", "('value', 0)", PARITY, -5),
                breach(2, "star[u,u]", "-1", "4", -5),
                breach(3, "adjunction_defect[u]", "('value', 0)", PARITY, -1),
                breach(3, "star[u,u]", "-1", "0", -1),
                breach(4, "adjunction_defect[u]", "('value', 0)", PARITY, 3),
                breach(4, "star[u,u]", "-1", "-4", 3),
                breach(5, "adjunction_defect[u]", "('value', 0)", POSITIVITY, 2),
                breach(5, "star[u,u]", "-1", "-3", 2),
            ],
        }

    def test_round_trip_breach(self, monkeypatch):
        # a law that moves rel_c1 by the twist's absolute value is not a
        # group action: m then -m leaves rel_c1 + 2|m|, so every nonzero
        # twist breaks the round trip, the negative one of trial 2 too
        def one_way_law(scene, shift):
            shifted = shift_scene(scene, shift)
            extra = abs(shift.shifts["g"])
            curves = tuple(dataclasses.replace(c, rel_c1=c.rel_c1 + extra) for c in shifted.curves)
            return Scene(shifted.orbits, curves, shifted.pairing)

        monkeypatch.setattr(audit, "shift_scene", one_way_law)
        report = audit.audit_scene(one_end_scene(), shifts=3, seed=0)
        round_trips = [b for b in report["breaches"] if b["quantity"] == "shift round-trip"]
        assert round_trips == [
            {
                "trial": trial,
                "quantity": "shift round-trip",
                "baseline": "original scene",
                "shifted": "scene differs after shifting by m then -m",
                "twist": {"g": m},
            }
            for trial, m in ((0, 1), (1, 1), (2, -5))
        ]


class TestTwistGenerator:
    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    def test_twists_are_standard_library_draws_in_orbit_order(self, monkeypatch, seed):
        # each trial draws one twist per orbit from random.Random(seed), in
        # the scene's orbit order; shift_scene sees it, then its negative
        scene = benchmark_sized_scene()
        shifts = []

        def recorded(scene, shift):
            shifts.append(dict(shift.shifts))
            return shift_scene(scene, shift)

        monkeypatch.setattr(audit, "shift_scene", recorded)
        assert audit.audit_scene(scene, shifts=4, seed=seed)["breaches"] == []
        rng = random.Random(seed)
        ids = [o.id for o in scene.orbits]
        expected = [{oid: rng.randint(-5, 5) for oid in ids} for _ in range(4)]
        assert len(ids) == 6
        assert [list(twist.items()) for twist in shifts[0::2]] == [list(t.items()) for t in expected]
        assert shifts[1::2] == [{oid: -m for oid, m in t.items()} for t in expected]


# -- the work of one snapshot and one shift, by call counts -------------------


def benchmark_sized_scene():
    """Six orbits and eight curves, the largest benchmark size; the seed gives
    curves of 1-6 punctures sharing end groups."""
    rng = np.random.default_rng(7)
    while True:
        scene = random_scene(rng, 6, 8, 6)
        if len(scene.curves) == 8 and len(scene.orbits) == 6:
            return scene


class TestSnapshotCost:
    def test_one_star_per_entry_and_one_end_walk_per_curve(self, monkeypatch):
        scene = benchmark_sized_scene()
        stars, walks = Counter(), Counter()
        real_star, real_sums = xn.star, xn.end_sums

        def counted_star(scene, u_id, v_id):
            stars[u_id, v_id] += 1
            return real_star(scene, u_id, v_id)

        def counted_sums(scene, curve):
            walks[curve.id] += 1
            return real_sums(scene, curve)

        monkeypatch.setattr(xn, "star", counted_star)
        monkeypatch.setattr(xn, "end_sums", counted_sums)
        audit._snapshot(scene)
        assert len(scene.pairing.entries) == 36
        assert stars == Counter(list(scene.pairing.entries))
        assert walks == Counter(c.id for c in scene.curves)

    def test_shift_walks_no_end_pairs(self, monkeypatch):
        # both corrections come from sums over each curve's counted ends:
        # no end bound is looked up
        scene = benchmark_sized_scene()
        shift = random_shift(np.random.default_rng(0), scene)
        calls = []
        real_bound = CoverData.end_bound

        def counted_bound(*args):
            calls.append(args)
            return real_bound(*args)

        monkeypatch.setattr(CoverData, "end_bound", counted_bound)
        shifted = shift_scene(scene, shift)
        monkeypatch.undo()
        assert calls == []
        assert shifted == ref_shift_scene(scene, shift)


def many_end_scene(ends=1000, covers=4):
    """One curve with ``ends`` ends on one orbit, both signs and ``covers``
    covers of each in turn: 2 * covers distinct (sign, k) groups."""
    orbit = OrbitData("g", {k: CoverData(k - 1, k) for k in range(1, covers + 1)})
    punctures = tuple(
        PunctureSpec("+-"[i % 2], "g", 1 + (i // 2) % covers) for i in range(ends)
    )
    curve = CurveClass("u", 0, punctures, 0)
    return Scene((orbit,), (curve,), RelativePairing({("u", "u"): 0}))


class TestCountedEnds:
    def test_star_walks_distinct_covers_in_a_1000_end_audit(self, monkeypatch):
        # a star walks each pair of distinct covers once, not each of the
        # 1000^2 / 2 same-sign pairs of ends; counted, not timed
        scene = many_end_scene()
        distinct = sum(len(covers) for covers in scene.curve("u").ends.values())
        assert distinct == 8
        stars, omegas = [], []
        real_star, real_omega = xn.star, xn._omega

        def counted_star(*args):
            stars.append(args[1:])
            return real_star(*args)

        def counted_omega(*args):
            omegas.append(args)
            return real_omega(*args)

        monkeypatch.setattr(xn, "star", counted_star)
        monkeypatch.setattr(xn, "_omega", counted_omega)
        report = audit.audit_scene(scene, shifts=5, seed=0)
        assert report == {"trials": 5, "breaches": []}
        assert len(stars) == 6  # the baseline and one per twist
        assert 0 < len(omegas) <= len(stars) * distinct**2

    def test_counted_star_matches_the_pair_walk(self):
        scene = many_end_scene(ends=60, covers=3)
        assert xn.star(scene, "u", "u") == ref_star(scene, "u", "u")
        assert xn.end_sums(scene, scene.curve("u")) == ref_sums(scene, scene.curve("u"))


# -- the shift builds without validating; it must equal what validates ---------


def validated(scene):
    """The scene rebuilt field by field through the validating constructors."""
    orbits = tuple(
        OrbitData(o.id, {k: CoverData(c.alpha_minus, c.alpha_plus) for k, c in o.cover_table.items()})
        for o in scene.orbits
    )
    curves = tuple(
        CurveClass(c.id, c.genus, c.punctures, c.rel_c1, c.ambient_dim_half) for c in scene.curves
    )
    return Scene(orbits, curves, RelativePairing(dict(scene.pairing.entries)))


def objects(scene):
    """Every object of a scene, in a fixed order."""
    yield scene
    yield scene.pairing
    yield from scene.orbits
    yield from (c for o in scene.orbits for c in o.cover_table.values())
    yield from scene.curves


class TestTrustedShift:
    def test_equals_the_validating_rebuild_on_300_scenes(self):
        rng = np.random.default_rng(47)
        for scene in seeded_scenes(rng, 60):
            shifted = shift_scene(scene, random_shift(rng, scene))
            rebuilt = core.scene_from_dict(core.scene_to_dict(shifted))
            for other in (rebuilt, validated(shifted)):
                assert shifted == other
                assert repr(shifted) == repr(other)
                assert [c.ends for c in shifted.curves] == [c.ends for c in other.curves]
                assert shifted._orbit_index == other._orbit_index
                assert shifted._curve_index == other._curve_index
                # the same attributes on every object, fields or not
                assert [type(x) for x in objects(shifted)] == [type(x) for x in objects(other)]
                assert [vars(x).keys() for x in objects(shifted)] == [
                    vars(x).keys() for x in objects(other)
                ]
            # the indices name the scene's own objects
            assert all(shifted.orbit(o.id) is o for o in shifted.orbits)
            assert all(shifted.curve(c.id) is c for c in shifted.curves)
            numbers = [c.rel_c1 for c in shifted.curves] + list(shifted.pairing.entries.values())
            numbers += [
                a for o in shifted.orbits for c in o.cover_table.values() for a in vars(c).values()
            ]
            assert {type(x) for x in numbers} <= {int}

    def test_shift_then_its_inverse_gives_back_the_scene(self):
        rng = np.random.default_rng(53)
        for scene in seeded_scenes(rng, 60):
            shift = random_shift(rng, scene)
            back = shift_scene(
                shift_scene(scene, shift), TrivializationShift({k: -v for k, v in shift.shifts.items()})
            )
            assert back == scene
            assert repr(back) == repr(scene)
            assert [c.ends for c in back.curves] == [c.ends for c in scene.curves]

    def test_a_refused_twist_builds_nothing(self, monkeypatch):
        built = []
        real = core._trusted

        def counted(cls, **fields):
            built.append(cls)
            return real(cls, **fields)

        monkeypatch.setattr(core, "_trusted", counted)
        scene = one_end_scene()
        for twist in ({"nope": 1}, {"g": True}, {"g": "1"}, {"g": 1.5}):
            with pytest.raises(InputError):
                shift_scene(scene, TrivializationShift(twist))
        assert built == []
        shift_scene(scene, TrivializationShift({"g": 1}))
        assert built == [CoverData, OrbitData, CurveClass, RelativePairing, Scene]


# -- the snapshot reads each cover once; seeds follow the integer rule ---------


class TestSnapshotReadsEachCover:
    def test_no_cover_lookup_and_no_module_reader(self, monkeypatch):
        # each CoverData is read off the cover table once, as star and
        # end_sums read it: no OrbitData.cover call
        scene = benchmark_sized_scene()
        shifted = shift_scene(scene, random_shift(np.random.default_rng(5), scene))
        calls = []
        real_cover = OrbitData.cover

        def counted_cover(*args):
            calls.append(args)
            return real_cover(*args)

        monkeypatch.setattr(OrbitData, "cover", counted_cover)
        snaps = [audit._snapshot(s) for s in (scene, shifted)]
        monkeypatch.undo()
        assert calls == []
        assert snaps == [ref_snapshot(scene), ref_snapshot(shifted)]


class TestSeedIsAnInteger:
    @pytest.mark.parametrize("seed", [1.5, True, "1", None])
    def test_non_integer_seed_refused(self, seed):
        with pytest.raises(InputError) as err:
            audit.audit_scene(one_end_scene(), shifts=1, seed=seed)
        assert str(err.value) == f"seed must be an integer, got {seed!r}"

    @pytest.mark.parametrize("seed", [-1, np.int64(-3)])
    def test_negative_seed_refused_with_the_cli_message(self, seed):
        with pytest.raises(InputError) as err:
            audit.audit_scene(one_end_scene(), shifts=1, seed=seed)
        assert str(err.value) == f"seed must be nonnegative, got {int(seed)}"

    def test_numpy_integer_seed_is_the_int(self):
        scene = benchmark_sized_scene()
        assert audit.audit_scene(scene, 3, np.int64(5)) == audit.audit_scene(scene, 3, 5)
