import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import siefring_kit
from siefring_kit import core
from siefring_kit.core import (
    CoverData,
    CurveClass,
    OrbitData,
    PunctureSpec,
    RelativePairing,
    Scene,
    TrivializationShift,
    euler_char,
    scene_from_dict,
    scene_to_dict,
    shift_scene,
)
from siefring_kit.errors import InputError

from scenegen import random_scene, random_shift


def orbit(am, ap, k=1, oid="g"):
    return OrbitData(oid, {k: CoverData(am, ap)})


class TestParityAndIndex:
    def test_odd_orbit(self):
        assert orbit(0, 1).cover(1).parity() == 1

    def test_even_orbit(self):
        assert orbit(3, 3).cover(1).parity() == 0

    def test_negative_windings(self):
        assert orbit(-1, 0).cover(1).parity() == 1

    def test_cz_odd(self):
        assert orbit(0, 1).cover(1).cz_index() == 1

    @pytest.mark.parametrize("k", [0, 1, 2, 5, -3])
    def test_cz_even_formula(self, k):
        assert orbit(k, k).cover(1).cz_index() == 2 * k

    def test_cz_negative(self):
        assert orbit(-1, 0).cover(1).cz_index() == -1

    def test_unknown_cover(self):
        with pytest.raises(InputError, match="unknown cover"):
            orbit(0, 1).cover(2).parity()

    def test_nondegeneracy_enforced(self):
        with pytest.raises(InputError, match="nondegeneracy"):
            CoverData(0, 2)
        with pytest.raises(InputError, match="nondegeneracy"):
            CoverData(1, 0)


class TestSigmaBar:
    def test_simple_orbit_is_one(self):
        assert orbit(5, 5).cover(1).sigma_bar(1, -1) == 1
        assert orbit(5, 5).cover(1).sigma_bar(1, 1) == 1

    def test_coprime(self):
        assert orbit(1, 1, k=2).cover(2).sigma_bar(2, -1) == 1

    def test_gcd_with_zero_is_k(self):
        assert orbit(0, 0, k=4).cover(4).sigma_bar(4, -1) == 4

    def test_divides_k(self):
        o = OrbitData("g", {4: CoverData(6, 6)})
        assert o.cover(4).sigma_bar(4, -1) == 2
        assert 4 % o.cover(4).sigma_bar(4, -1) == 0

    def test_equals_k_iff_k_divides_alpha(self):
        o = OrbitData("g", {3: CoverData(6, 7)})
        assert o.cover(3).sigma_bar(3, -1) == 3  # 3 | 6
        assert o.cover(3).sigma_bar(3, 1) == 1  # gcd(3, 7)


def raw_gcd(k, a):
    """The largest d dividing both k and a, by trial: gcd(k, 0) = k."""
    return max(d for d in range(1, k + 1) if k % d == 0 and a % d == 0)


class TestCoverRules:
    """Every per-cover rule is a CoverData method."""

    def test_methods_match_the_raw_formulas_on_300_scenes(self):
        rng = np.random.default_rng(67)
        seen = set()
        for _ in range(300):
            scene = random_scene(rng, 4, 2, 2)
            for orbit in scene.orbits:
                for k, c in orbit.cover_table.items():
                    am, ap = c.alpha_minus, c.alpha_plus
                    assert (c.alpha(1), c.alpha(-1)) == (ap, am)
                    assert (c.end_bound(1), c.end_bound(-1)) == (am, ap)
                    assert c.parity() == ap - am
                    assert c.cz_index() == 2 * am + c.parity() == 2 * ap - c.parity()
                    assert c.sigma_bar(k, -1) == raw_gcd(k, am)
                    assert c.sigma_bar(k, 1) == raw_gcd(k, ap)
                    if am == 0:
                        assert c.sigma_bar(k, -1) == k
                    if k > 1:
                        seen.add((am == 0, c.sigma_bar(k, -1) == k, c.parity()))
        # on multiple covers: winding 0 at both parities, k dividing a nonzero
        # winding, and k prime to it
        assert {(True, True, 0), (True, True, 1), (False, True, 0), (False, False, 1)} <= seen


class TestEulerChar:
    def test_sphere(self):
        assert euler_char(CurveClass("u", 0, (), 0)) == 2

    def test_cylinder(self):
        ps = (PunctureSpec("+", "g", 1), PunctureSpec("-", "g", 1))
        assert euler_char(CurveClass("u", 0, ps, 0)) == 0

    def test_genus_two_three_punctures(self):
        ps = tuple(PunctureSpec("+", "g", 1) for _ in range(3))
        assert euler_char(CurveClass("u", 2, ps, 0)) == -5


def demo_scene():
    orbits = (
        OrbitData("a", {1: CoverData(0, 1), 2: CoverData(1, 1)}),
        OrbitData("b", {1: CoverData(-2, -1)}),
    )
    curves = (
        CurveClass(
            "u",
            0,
            (PunctureSpec("+", "a", 1), PunctureSpec("-", "a", 2)),
            3,
        ),
        CurveClass("v", 1, (PunctureSpec("+", "b", 1),), -1),
    )
    pairing = RelativePairing({("u", "u"): 2, ("u", "v"): -1, ("v", "v"): 0})
    return Scene(orbits, curves, pairing)


class TestShiftScene:
    def test_zero_shift_is_identity(self):
        scene = demo_scene()
        assert shift_scene(scene, TrivializationShift({"a": 0, "b": 0})) == scene

    def test_windings_shift_by_cover_multiple(self):
        scene = demo_scene()
        out = shift_scene(scene, TrivializationShift({"a": 2}))
        assert out.orbit("a").cover(1) == CoverData(-2, -1)
        assert out.orbit("a").cover(2) == CoverData(-3, -3)
        assert out.orbit("b").cover(1) == CoverData(-2, -1)

    def test_group_action(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            scene = random_scene(rng)
            s1 = random_shift(rng, scene)
            s2 = random_shift(rng, scene)
            once = shift_scene(shift_scene(scene, s1), s2)
            combined = TrivializationShift(
                {k: s1.shifts[k] + s2.shifts[k] for k in s1.shifts}
            )
            assert once == shift_scene(scene, combined)
            inverse = TrivializationShift({k: -v for k, v in s1.shifts.items()})
            assert shift_scene(shift_scene(scene, s1), inverse) == scene

    def test_unknown_orbit_rejected(self):
        with pytest.raises(InputError, match="unknown orbit"):
            shift_scene(demo_scene(), TrivializationShift({"nope": 1}))

    @pytest.mark.parametrize(
        "twist, shown", [(True, "True"), ("1", "'1'"), (1.5, "1.5"), (2.0, "2.0")]
    )
    def test_twists_are_read_as_integers(self, twist, shown):
        # a bool is no number, and the string and float twists are refused
        # by the twist's own message, before any winding moves
        message = f"orbit 'a': twist must be an integer, got {shown}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            shift_scene(demo_scene(), TrivializationShift({"a": twist}))

    def test_numpy_twist_is_read_as_an_int(self):
        out = shift_scene(demo_scene(), TrivializationShift({"a": np.int64(2)}))
        assert out == shift_scene(demo_scene(), TrivializationShift({"a": 2}))
        assert [type(a) for a in vars(out.orbit("a").cover(2)).values()] == [int, int]


class TestCountFields:
    """Count fields are read through ``typed`` and keep the int it returns."""

    def test_numpy_multiplicity_shifts_to_json(self):
        orbits = (OrbitData("o", {1: CoverData(0, 1), 2: CoverData(1, 1)}),)
        curve = CurveClass("u", 0, (PunctureSpec("+", "o", np.int64(2)),), 0)
        assert type(curve.punctures[0].multiplicity) is int
        shifted = shift_scene(Scene(orbits, (curve,), RelativePairing({})), TrivializationShift({"o": 1}))
        assert type(shifted.curve("u").rel_c1) is int
        assert scene_from_dict(json.loads(json.dumps(scene_to_dict(shifted)))) == shifted

    @pytest.mark.parametrize("name", ["genus", "rel_c1", "ambient_dim_half"])
    @pytest.mark.parametrize("bad", [True, 1.5])
    def test_curve_fields_refuse_bool_and_float(self, name, bad):
        fields = dict(genus=0, rel_c1=0, ambient_dim_half=2) | {name: bad}
        with pytest.raises(InputError, match=rf"curve 'u': {name} must be an integer, got {bad!r}"):
            CurveClass("u", punctures=(), **fields)

    def test_curve_fields_store_ints(self):
        curve = CurveClass("u", np.int64(1), (), np.int32(-2), np.int64(3))
        assert [type(x) for x in (curve.genus, curve.rel_c1, curve.ambient_dim_half)] == [int] * 3
        assert repr(curve) == repr(CurveClass("u", 1, (), -2, 3))

    @pytest.mark.parametrize("alphas", [(0.5, 1.5), (True, True), (0, 1.0)])
    def test_cover_data_refuses_bool_and_float(self, alphas):
        name, bad = next((n, a) for n, a in zip(("alpha_minus", "alpha_plus"), alphas) if type(a) is not int)
        with pytest.raises(InputError, match=rf"^{name} must be an integer, got {bad!r}$"):
            CoverData(*alphas)

    def test_cover_data_stores_ints(self):
        cover = CoverData(np.int64(-1), np.int32(0))
        assert [type(x) for x in (cover.alpha_minus, cover.alpha_plus)] == [int, int]
        assert repr(cover) == repr(CoverData(-1, 0))

    @pytest.mark.parametrize("bad", [1.5, True])
    def test_pairing_entries_refuse_bool_and_float(self, bad):
        message = rf"^pairing entry for \('u', 'v'\): value must be an integer, got {bad!r}$"
        with pytest.raises(InputError, match=message):
            RelativePairing({("v", "u"): bad})
        with pytest.raises(InputError, match=message):
            RelativePairing.from_items([("u", "v", bad)])

    def test_pairing_entries_store_ints(self):
        pairing = RelativePairing.from_items([("v", "u", np.int64(-2)), ("u", "u", np.int32(1))])
        assert pairing.entries == {("u", "v"): -2, ("u", "u"): 1}
        assert all(type(value) is int for value in pairing.entries.values())
        with pytest.raises(InputError, match="conflicting pairing entries"):
            RelativePairing.from_items([("u", "v", 1), ("v", "u", np.int64(2))])

    def test_range_messages_kept(self):
        with pytest.raises(InputError, match="curve 'u': genus must be >= 0"):
            CurveClass("u", np.int64(-1), (), 0)
        with pytest.raises(InputError, match="curve 'u': ambient_dim_half must be >= 2"):
            CurveClass("u", 0, (), 0, 1)
        with pytest.raises(InputError, match="puncture multiplicity must be >= 1, got 0"):
            PunctureSpec("+", "o", np.int64(0))


class TestSceneValidation:
    def test_missing_cover_rejected(self):
        orbits = (OrbitData("a", {1: CoverData(0, 1)}),)
        curves = (CurveClass("u", 0, (PunctureSpec("+", "a", 2),), 0),)
        with pytest.raises(InputError, match="unknown cover"):
            Scene(orbits, curves, RelativePairing({}))

    def test_unknown_orbit_reference(self):
        curves = (CurveClass("u", 0, (PunctureSpec("+", "zz", 1),), 0),)
        with pytest.raises(InputError, match="unknown orbit"):
            Scene((), curves, RelativePairing({}))

    def test_pairing_symmetry_via_key_normalization(self):
        scene = demo_scene()
        assert scene.pairing.get("v", "u") == scene.pairing.get("u", "v")

    def test_first_defect_in_puncture_order_is_reported(self):
        # two defects: curve u's second puncture names a missing cover, v's
        # first an unknown orbit; the punctures are walked in order
        orbits = (OrbitData("a", {1: CoverData(0, 1)}),)
        u = CurveClass("u", 0, (PunctureSpec("+", "a", 1), PunctureSpec("-", "a", 3)), 0)
        v = CurveClass("v", 0, (PunctureSpec("+", "zz", 1), PunctureSpec("+", "a", 3)), 0)
        message = "unknown cover: orbit 'a' has no multiplicity 3"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            Scene(orbits, (u, v), RelativePairing({}))
        message = "curve 'v' references unknown orbit 'zz'"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            Scene(orbits, (v, u), RelativePairing({}))

    def test_each_distinct_cover_checked_once(self, monkeypatch):
        scene = random_scene(np.random.default_rng(3), 4, 8, 6)
        punctures = [p for c in scene.curves for p in c.punctures]
        distinct = {(p.orbit, p.multiplicity) for p in punctures}
        assert len(punctures) > len(distinct)
        calls = []
        real = OrbitData.cover

        def counted(orbit, k):
            calls.append((orbit.id, k))
            return real(orbit, k)

        monkeypatch.setattr(OrbitData, "cover", counted)
        assert Scene(scene.orbits, scene.curves, scene.pairing) == scene
        assert sorted(calls) == sorted(distinct)

    def test_duplicate_ids_rejected(self):
        o = OrbitData("a", {1: CoverData(0, 0)})
        with pytest.raises(InputError, match="duplicate orbit"):
            Scene((o, o), (), RelativePairing({}))

    def test_duplicate_curve_ids_rejected(self):
        u = CurveClass("u", 0, (), 0)
        with pytest.raises(InputError) as refusal:
            Scene((), (u, u), RelativePairing({}))
        assert str(refusal.value) == "duplicate curve ids in scene"

    def test_unknown_puncture_sign_rejected(self):
        with pytest.raises(InputError) as refusal:
            PunctureSpec("x", "o", 1)
        assert str(refusal.value) == "puncture sign must be '+' or '-', got 'x'"


class TestSceneFiles:
    def test_round_trip(self):
        scene = demo_scene()
        assert scene_from_dict(scene_to_dict(scene)) == scene

    def test_unknown_top_level_key(self):
        data = scene_to_dict(demo_scene())
        data["extra"] = 1
        with pytest.raises(InputError, match="'extra'"):
            scene_from_dict(data)

    def test_unknown_nested_key(self):
        data = scene_to_dict(demo_scene())
        data["curves"][0]["surprise"] = True
        with pytest.raises(InputError, match="'surprise'"):
            scene_from_dict(data)

    def test_unknown_puncture_key(self):
        data = scene_to_dict(demo_scene())
        data["curves"][0]["punctures"][0]["weight"] = 2
        with pytest.raises(InputError, match="'weight'"):
            scene_from_dict(data)

    def test_json_serializable(self):
        text = json.dumps(scene_to_dict(demo_scene()))
        assert scene_from_dict(json.loads(text)) == demo_scene()


class TestPackageNames:
    """The package binds its error types and ``__version__``; the layers,
    ``core`` among them, are reached by their own module names."""

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError) as refusal:
            siefring_kit.no_such_name
        assert str(refusal.value) == "module 'siefring_kit' has no attribute 'no_such_name'"
        assert not hasattr(siefring_kit, "_CORE_NAMES")

    def test_package_import_runs_no_core(self):
        package_root = Path(siefring_kit.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(package_root))
        script = "import sys, siefring_kit; print('siefring_kit.core' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
