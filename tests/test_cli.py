import json
import os
import subprocess
import sys

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from siefring_kit import audit, cli
from siefring_kit.errors import InputError
from siefring_kit.germs import gaussian
from siefring_kit.jsonio import canonical_dumps

LOOP_IDENTITY = {
    "modes": [{"n": 0, "cos": [[1.0, 0.0], [0.0, 1.0]], "sin": [[0.0, 0.0], [0.0, 0.0]]}]
}

GERM_35 = {"p": [[0, 1, 0, 1]] * 3 + [[1, 1, 0, 1]], "q": [[0, 1, 0, 1]] * 5 + [[1, 1, 0, 1]]}
GERM_46 = {"p": [[0, 1, 0, 1]] * 4 + [[1, 1, 0, 1]], "q": [[0, 1, 0, 1]] * 6 + [[1, 1, 0, 1]]}
# p = z^2, q = z^3 / 10^400 and q = 10^400 z^3: exact, but beyond complex128
GERM_CUSP_TINY = {
    "p": [[0, 1, 0, 1]] * 2 + [[1, 1, 0, 1]],
    "q": [[0, 1, 0, 1]] * 3 + [[1, 10**400, 0, 1]],
}
GERM_CUSP_HUGE = dict(GERM_CUSP_TINY, q=[[0, 1, 0, 1]] * 3 + [[10**400, 1, 0, 1]])
# the same beyond complex128 in the imaginary part: q = i z^3 / 10^400 and 10^400 i z^3
GERM_CUSP_TINY_IMAG = dict(GERM_CUSP_TINY, q=[[0, 1, 0, 1]] * 3 + [[0, 1, 1, 10**400]])
GERM_CUSP_HUGE_IMAG = dict(GERM_CUSP_TINY, q=[[0, 1, 0, 1]] * 3 + [[0, 1, 10**400, 1]])
# a = 10^-20: u = (a z, a z^2), v = (a z^2, a z) and the cusp (a z^2, a z^3)
_A = [1, 10**20, 0, 1]
GERM_TINY_U = {"p": [[0, 1, 0, 1], _A], "q": [[0, 1, 0, 1]] * 2 + [_A]}
GERM_TINY_V = {"p": GERM_TINY_U["q"], "q": GERM_TINY_U["p"]}
GERM_TINY_CUSP = {"p": [[0, 1, 0, 1]] * 2 + [_A], "q": [[0, 1, 0, 1]] * 3 + [_A]}
# (z^9, z^10 + (1 + 2i)/3 z^18): a double-point disk with 8 moving Sylvester rows
GERM_DEGREE_NINE = {
    "p": [[0, 1, 0, 1]] * 9 + [[1, 1, 0, 1]],
    "q": [[0, 1, 0, 1]] * 10 + [[1, 1, 0, 1]] + [[0, 1, 0, 1]] * 7 + [[1, 3, 2, 3]],
}


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_identity_loop_report(self, tmp_path, capsys):
        loop = write(tmp_path / "loop.json", LOOP_IDENTITY)
        code, out, _ = run(capsys, "spectrum", loop, "--cutoff", "32", "--window", "-2", "2")
        assert code == 0
        report = json.loads(out)
        assert report["alpha_minus"] == 0
        assert report["alpha_plus"] == 1
        assert report["cz"] == 1
        assert report["eigenvalues"] == pytest.approx([-1.0, -1.0], abs=1e-9)

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "spectrum", str(bad))
        assert code == 1
        assert "malformed JSON" in err

    def test_window_beyond_resolution_exits_one(self, tmp_path, capsys):
        loop = write(tmp_path / "loop.json", LOOP_IDENTITY)
        code, _, err = run(capsys, "spectrum", loop, "--cutoff", "8", "--window", "-100", "100")
        assert code == 1
        assert "window exceeds resolution" in err


class TestCurveCommand:
    def test_planar_page_report(self, capsys):
        code, out, _ = run(capsys, "curve", "planar_page", "page")
        assert code == 0
        report = json.loads(out)
        assert report["adjunction_defect"] == 0
        assert report["index"] == 2
        assert report["c_N"] == 0
        assert report["foliation"]["all_pass"] is True
        assert report["automatic_transversality"] is True

    def test_orbit_cylinder_report(self, capsys):
        code, out, _ = run(capsys, "curve", "orbit_cylinder", "cyl_odd_1")
        assert code == 0
        report = json.loads(out)
        assert report["c_N"] == -1
        assert report["star_self"] == -1

    def test_non_simple_cover_exits_two(self, capsys):
        code, _, err = run(capsys, "curve", "orbit_cylinder", "cyl_odd_2")
        assert code == 2
        assert "inconsistent" in err

    def test_unknown_curve_exits_one(self, capsys):
        code, _, err = run(capsys, "curve", "planar_page", "nope")
        assert code == 1
        assert "unknown curve" in err

    def test_unknown_scene_exits_one(self, capsys):
        code, _, err = run(capsys, "curve", "no_such_scene", "u")
        assert code == 1
        assert "neither a readable file" in err


class TestStarCommand:
    def test_closed_pair(self, capsys):
        code, out, _ = run(capsys, "star", "closed_ruled", "bubble_plus", "bubble_minus")
        assert code == 0
        assert json.loads(out)["star"] == 1

    def test_scene_from_file(self, tmp_path, capsys):
        from siefring_kit.cli import golden_scene
        from siefring_kit.core import scene_to_dict

        path = write(tmp_path / "scene.json", scene_to_dict(golden_scene("planar_page")))
        code, out, _ = run(capsys, "star", path, "page", "page")
        assert code == 0
        assert json.loads(out)["star"] == 0


class TestAuditCommand:
    @pytest.mark.parametrize("scene", cli.GOLDEN_SCENES)
    def test_golden_scenes_pass(self, scene, capsys):
        code, out, _ = run(capsys, "audit", scene, "--shifts", "10", "--seed", "3")
        assert code == 0
        assert json.loads(out)["breaches"] == []

    def test_zero_shifts_is_a_trivial_pass(self, capsys):
        code, out, _ = run(capsys, "audit", "planar_page", "--shifts", "0")
        assert code == 0
        assert json.loads(out) == {"breaches": [], "trials": 0}

    def test_shift_bound_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(audit, "MAX_SHIFTS", 2)
        code, out, _ = run(capsys, "audit", "planar_page", "--shifts", "2")
        assert code == 0 and json.loads(out)["trials"] == 2
        code, out, err = run(capsys, "audit", "planar_page", "--shifts", "3")
        assert (code, out) == (1, "")
        assert err == "error: number of shifts too large: need shifts <= 2, got 3\n"

    def test_breach_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "audit_scene",
            lambda scene, shifts, seed: {
                "trials": shifts,
                "breaches": [{"trial": 0, "quantity": "index[u]"}],
            },
        )
        code, _, err = run(capsys, "audit", "planar_page")
        assert code == 3
        assert "invariance breach" in err and "index[u]" in err


class TestGermCommand:
    def test_iota_prints_integer(self, tmp_path, capsys):
        a = write(tmp_path / "a.json", GERM_35)
        b = write(tmp_path / "b.json", GERM_46)
        code, out, _ = run(capsys, "germ", "iota", a, b)
        assert code == 0
        assert out == "18\n"

    def test_delta(self, tmp_path, capsys):
        a = write(tmp_path / "a.json", GERM_35)
        code, out, _ = run(capsys, "germ", "delta", a)
        assert code == 0
        assert out == "4\n"

    def test_delta_exact_beyond_float_range(self, tmp_path, capsys):
        # the oracle refuses this germ (see MALFORMED); the exact count does not
        a = write(tmp_path / "a.json", GERM_CUSP_TINY)
        code, out, _ = run(capsys, "germ", "delta", a)
        assert code == 0
        assert out == "1\n"

    def test_oracle_pair(self, tmp_path, capsys):
        a = write(tmp_path / "a.json", GERM_35)
        b = write(tmp_path / "b.json", GERM_46)
        code, out, _ = run(capsys, "germ", "oracle", a, b, "--epsilon", "1e-3", "--radius", "0.3")
        assert code == 0
        assert out == "18\n"

    def test_oracle_single(self, tmp_path, capsys):
        a = write(tmp_path / "a.json", GERM_35)
        code, out, _ = run(capsys, "germ", "oracle", a)
        assert code == 0
        assert out == "4\n"

    def test_oracle_single_stuck_at_the_origin(self, tmp_path, capsys):
        # at epsilon 1e-8 the perturbed double points of (z^3, z^5) stay at 0
        # to the trim that the companion rule read them with, which refused
        # the cell; the winding counts them, and prints delta
        a = write(tmp_path / "a.json", GERM_35)
        code, out, err = run(capsys, "germ", "oracle", a, "--epsilon", "1e-8")
        assert (code, out, err) == (0, "4\n", "")
        assert run(capsys, "germ", "delta", a) == (code, out, err)

    @pytest.mark.parametrize("germs", [[GERM_TINY_U, GERM_TINY_V], [GERM_TINY_CUSP]], ids=["pair", "single"])
    def test_oracle_refuses_an_epsilon_that_dwarfs_the_germ(self, germs, tmp_path, capsys):
        # a = 10^-20: the companion rule printed 0 where the exact answer is 1
        paths = [write(tmp_path / f"{i}.json", g) for i, g in enumerate(germs)]
        exact = run(capsys, "germ", "iota" if len(paths) == 2 else "delta", *paths)
        assert exact == (0, "1\n", "")
        code, out, err = run(capsys, "germ", "oracle", *paths)
        assert (code, out) == (1, "")
        assert err == "error: oracle failed: epsilon too large for the disk (Rouche's test); shrink epsilon\n"

    def test_oracle_radius_on_a_root_exits_one(self, tmp_path, capsys):
        # (z^2, z^3 + eps z) has its double points on |z| = |eps|^(1/2): the
        # one draw passes Rouche's test at no sample count
        cusp = {"p": [[0, 1, 0, 1]] * 2 + [[1, 1, 0, 1]], "q": [[0, 1, 0, 1]] * 3 + [[1, 1, 0, 1]]}
        a = write(tmp_path / "a.json", cusp)
        code, out, err = run(capsys, "germ", "oracle", a, "--radius", "0.03162277660168388")
        assert (code, out) == (1, "")
        assert err == "error: oracle failed: radius on a root; change the radius\n"

    @pytest.mark.parametrize(
        "args, expected",
        [
            ([], (1, "", "error: oracle failed: epsilon too large for the disk (Rouche's test); shrink epsilon\n")),
            (["--epsilon", "1e-8"], (0, "36\n", "")),
        ],
        ids=["default", "epsilon-1e-8"],
    )
    def test_oracle_degree_nine_germ(self, tmp_path, capsys, args, expected):
        # the one cell of each process is read off its disk's expansion
        a = write(tmp_path / "a.json", GERM_DEGREE_NINE)
        assert run(capsys, "germ", "oracle", a, *args) == expected

    @pytest.mark.parametrize("command", ["iota", "oracle"])
    def test_identical_images_exit_one(self, tmp_path, capsys, command):
        # a germ against itself: Res_w vanishes identically, and the exact
        # count and the oracle refuse with the same line
        a = write(tmp_path / "a.json", GERM_35)
        code, out, err = run(capsys, "germ", command, a, a)
        assert (code, out) == (1, "")
        assert err == "error: identical images / common branch: resultant vanishes identically\n"

    def test_iota_needs_two_files(self, tmp_path, capsys):
        a = write(tmp_path / "a.json", GERM_35)
        code, out, err = run(capsys, "germ", "iota", a)
        assert (code, out) == (1, "")
        assert err == "error: germ iota needs two germ files\n"

    @pytest.mark.parametrize("germs", [("u", "v"), ("single",)])
    def test_oracle_resultant_underflow_exits_one(self, tmp_path, capsys, germs):
        # coefficients 10^-150 at epsilon 1e-200: the perturbed resultant
        # underflows to 0 on the whole circle, and the oracle refuses it
        a = [1, 10**150, 0, 1]
        payloads = {
            "u": {"p": [[0, 1, 0, 1], a], "q": [[0, 1, 0, 1]] * 2 + [a]},
            "v": {"p": [[0, 1, 0, 1]] * 2 + [a], "q": [[0, 1, 0, 1], a]},
            "single": {"p": [[0, 1, 0, 1]] * 2 + [a], "q": [[0, 1, 0, 1]] * 3 + [a]},
        }
        files = [write(tmp_path / f"{name}.json", payloads[name]) for name in germs]
        code, out, err = run(capsys, "germ", "oracle", *files, "--epsilon", "1e-200")
        assert (code, out, err) == (1, "", "error: oracle resultant vanished identically\n")


class TestNegativeNumbers:
    """A negative number in scientific notation is read as a value, as its
    plain spelling is; argparse's own pattern took it for an option, and the
    command exited 1 with "expected 2 arguments"."""

    def test_window_with_an_exponent(self, tmp_path, capsys):
        loop = write(tmp_path / "loop.json", LOOP_IDENTITY)
        plain = run(capsys, "spectrum", loop, "--window", "-10", "10")
        assert plain[0] == 0
        assert run(capsys, "spectrum", loop, "--window", "-1e1", "10") == plain

    def test_epsilon_with_an_exponent(self, tmp_path, capsys):
        a = write(tmp_path / "a.json", GERM_35)
        b = write(tmp_path / "b.json", GERM_46)
        plain = run(capsys, "germ", "oracle", a, b, "--epsilon", "-0.001")
        assert plain == (0, "18\n", "")
        assert run(capsys, "germ", "oracle", a, b, "--epsilon", "-1e-3") == plain


class TestClosedCommand:
    def test_cp2_degree_three(self, capsys):
        code, out, _ = run(capsys, "closed", "cp2", "--degree", "3")
        assert code == 0
        assert json.loads(out)["delta"] == 1

    def test_adjunction_inconsistent_exits_two(self, capsys):
        code, _, err = run(
            capsys, "closed", "adjunction", "--self-pairing", "0", "--c1", "1", "--genus", "0"
        )
        assert code == 2
        assert "inconsistent" in err

    def test_nodal_split(self, capsys):
        code, out, _ = run(capsys, "closed", "nodal-split")
        assert code == 0
        result = json.loads(out)
        assert result["cross_pairing"] == 1
        assert result["self_pairing_plus"] == -1


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        _, out1, _ = run(capsys, "curve", "planar_page", "page")
        _, out2, _ = run(capsys, "curve", "planar_page", "page")
        assert out1 == out2

    def test_spectrum_byte_identical(self, tmp_path, capsys):
        loop = write(tmp_path / "loop.json", LOOP_IDENTITY)
        _, out1, _ = run(capsys, "spectrum", loop, "--window", "-8", "8")
        _, out2, _ = run(capsys, "spectrum", loop, "--window", "-8", "8")
        assert out1 == out2

    def test_canonical_json_shape(self):
        text = canonical_dumps({"b": 1, "a": [1.5, True, None, "x"]})
        assert text == '{"a": [1.5, true, null, "x"], "b": 1}\n'

    def test_float_formatting(self):
        import math

        text = canonical_dumps({"pi": math.pi})
        assert text == '{"pi": 3.1415926535897931}\n'


# canonical_dumps per value type: the exact text, or the InputError it raises;
# numpy values are told by the numbers ABCs and the array interface, so
# jsonio needs no numpy import
DUMPS = {
    "int64": (np.int64(-7), "-7\n"),
    "uint8": (np.uint8(255), "255\n"),
    "int64_max": (np.int64(2**63 - 1), "9223372036854775807\n"),
    "float64": (np.float64(0.1), "0.10000000000000001\n"),
    "float32": (np.float32(1.1), "1.1000000238418579\n"),
    "float16": (np.float16(0.1), "0.0999755859375\n"),
    "array_1d": (np.array([1, 2, 3]), "[1, 2, 3]\n"),
    "array_float": (np.array([0.5, -0.0, 1e-300]), "[0.5, -0, 1e-300]\n"),
    "array_2d": (np.array([[1, 2], [3, 4]]), "[[1, 2], [3, 4]]\n"),
    "array_empty": (np.zeros(0), "[]\n"),
    "nested": (
        {"b": (np.int32(1), [np.float64(2.5)]), "a": None, 3: True},
        '{"3": true, "a": null, "b": [1, [2.5]]}\n',
    ),
    "bool_": (np.bool_(True), InputError(f"cannot serialize {type(np.bool_(True)).__name__}")),
    "array_bool": (np.array([True]), InputError("cannot serialize")),
    "fraction": (Fraction(1, 2), InputError("cannot serialize Fraction deterministically")),
    "fraction_integral": (Fraction(2), InputError("cannot serialize Fraction deterministically")),
    "gaussian": (gaussian(1, 2), InputError("cannot serialize GaussianRational deterministically")),
    "gaussian_real": (gaussian(1), InputError("cannot serialize GaussianRational deterministically")),
    "complex": (1 + 2j, InputError("cannot serialize complex deterministically")),
    "complex128": (np.complex128(1), InputError("cannot serialize complex128 deterministically")),
    "array_0d": (np.array(5), InputError("cannot serialize ndarray deterministically")),
    "nan": (math.nan, InputError("non-finite float nan in report")),
    "inf": (-math.inf, InputError("non-finite float -inf in report")),
    "float64_inf": (np.float64("inf"), InputError("non-finite float inf in report")),
    "float32_nan": (np.float32("nan"), InputError("non-finite float nan in report")),
}


class TestCanonicalDumps:
    @pytest.mark.parametrize("case", sorted(DUMPS))
    def test_value_type(self, case):
        value, expected = DUMPS[case]
        if isinstance(expected, str):
            assert canonical_dumps(value) == expected
        else:
            with pytest.raises(InputError, match="^" + re.escape(str(expected))):
                canonical_dumps({"x": [value]})


def _planar_page(edit):
    from siefring_kit.core import scene_to_dict

    data = scene_to_dict(cli.golden_scene("planar_page"))
    edit(data)
    return data


def _loop_mode(**fields):
    return {"modes": [dict(LOOP_IDENTITY["modes"][0], **fields)]}


# (subcommand, payload, arguments after the file, a fragment of the error);
# each used to end in a traceback, a wrong exit code or a truncated number
MALFORMED = {
    "scene_missing_id": (
        "curve", _planar_page(lambda d: d["curves"][-1].pop("id")), ["page"], "missing key 'id'"
    ),
    "alpha_float": (
        "curve",
        _planar_page(lambda d: d["orbits"][0]["covers"]["1"].update(alpha_minus=0.7)),
        ["page"],
        "'alpha_minus'",
    ),
    "rel_c1_float": (
        "curve", _planar_page(lambda d: d["curves"][0].update(rel_c1=0.9)), ["page"], "'rel_c1'"
    ),
    "genus_bool": (
        "curve", _planar_page(lambda d: d["curves"][0].update(genus=True)), ["page"], "'genus'"
    ),
    "germ_float": ("germ delta", dict(GERM_35, q=GERM_35["q"][:-1] + [[1.9, 1, 0, 1]]), [], "1.9"),
    "germ_zero_denominator": (
        "germ delta",
        dict(GERM_35, q=GERM_35["q"][:-1] + [[1, 0, 0, 1]]),
        [],
        "error: germ coefficient has zero denominator\n",
    ),
    "loop_nan": (
        "spectrum", _loop_mode(cos=[[float("nan"), 0.0], [0.0, 1.0]]), [], "finite number"
    ),
    "loop_n_float": ("spectrum", _loop_mode(n=1.5), [], "'n'"),
    "loop_missing_n": (
        "spectrum", {"modes": [{"cos": [[1.0, 0.0], [0.0, 1.0]]}]}, [], "missing key 'n'"
    ),
    "loop_ragged": ("spectrum", _loop_mode(cos=[[1.0, 0.0], [0.0]]), [], "2x2 matrix"),
    "loop_huge_int": ("spectrum", _loop_mode(cos=[[10**400, 0], [0, 1]]), [], "2x2 matrix"),
    "loop_overflow": (
        "spectrum",
        {
            "modes": [
                {"n": 0, "cos": [[1e308, 0.0], [0.0, 1e308]]},
                {"n": 1, "cos": [[1e308, 1e308], [1e308, 1e308]], "sin": [[1e308, 0.0], [0.0, -1e308]]},
            ]
        },
        ["--cutoff", "8"],
        "loop overflows",
    ),
    "scene_orbits_not_array": ("curve", {"orbits": 5}, ["page"], "must be an array"),
    "orbit_id_int": (
        "curve", _planar_page(lambda d: d["orbits"][0].update(id=7)), ["page"], "must be a string"
    ),
    "curve_id_list": (
        "curve",
        _planar_page(lambda d: d["curves"][1].update(id=["u"])),
        ["page"],
        "must be a string, got ['u']",
    ),
    "sign_int": (
        "curve",
        _planar_page(lambda d: d["curves"][0]["punctures"][0].update(sign=1)),
        ["page"],
        "'sign'",
    ),
    "orbit_ref_int": (
        "curve",
        _planar_page(lambda d: d["curves"][0]["punctures"][0].update(orbit=1)),
        ["page"],
        "'orbit'",
    ),
    "pairing_u_list": (
        "curve", _planar_page(lambda d: d["pairing"][0].update(u=["page"])), ["page"], "'u'"
    ),
    "pairing_v_null": (
        "curve", _planar_page(lambda d: d["pairing"][0].update(v=None)), ["page"], "'v'"
    ),
    "audit_negative_shifts": (
        "audit", _planar_page(lambda d: None), ["--shifts", "-3"], "must be nonnegative"
    ),
    "audit_huge_shifts": (
        "audit", _planar_page(lambda d: None), ["--shifts", "100000000000"], "shifts too large"
    ),
    "oracle_radius_inf": ("germ oracle", GERM_35, ["--radius", "inf"], "positive and finite"),
    "oracle_radius_huge": ("germ oracle", GERM_35, ["--radius", "1e300"], "not finite"),
    "oracle_epsilon_nan": ("germ oracle", GERM_35, ["--epsilon", "nan"], "must be finite"),
    "oracle_epsilon_inf": ("germ oracle", GERM_35, ["--epsilon", "inf"], "must be finite"),
    # no perturbation: the single oracle used to fail after 10 draws, the pair
    # oracle to print the unperturbed order (test_pair_oracle_refuses_the_same)
    "oracle_epsilon_zero": ("germ oracle", GERM_35, ["--epsilon", "0"], "epsilon must be nonzero"),
    "oracle_epsilon_negative_zero": (
        "germ oracle", GERM_35, ["--epsilon", "-0.0"], "epsilon must be nonzero"
    ),
    "oracle_coefficient_underflow": ("germ oracle", GERM_CUSP_TINY, [], "complex128"),
    "oracle_coefficient_overflow": ("germ oracle", GERM_CUSP_HUGE, [], "complex128"),
    "oracle_coefficient_imag_underflow": ("germ oracle", GERM_CUSP_TINY_IMAG, [], "complex128"),
    "oracle_coefficient_imag_overflow": ("germ oracle", GERM_CUSP_HUGE_IMAG, [], "complex128"),
    "audit_negative_seed": (
        "audit", _planar_page(lambda d: None), ["--seed", "-1"], "seed must be nonnegative"
    ),
    "oracle_seed_negative": ("germ oracle", GERM_35, ["--seed", "-1"], "seed must be nonnegative"),
}


# (command line, a fragment of the error), with FILE a readable germ file;
# each used to end in argparse's exit 2 after a usage line
MALFORMED_COMMAND_LINES = {
    "no_subcommand": ([], "the following arguments are required: command"),
    "unknown_subcommand": (["bogus"], "invalid choice: 'bogus'"),
    "audit_seed_float": (["audit", "planar_page", "--seed", "1.5"], "invalid int value: '1.5'"),
    "spectrum_no_file": (["spectrum"], "the following arguments are required: file"),
    "iota_one_file": (["germ", "iota", "FILE"], "germ iota needs two germ files"),
    # a dashed word that is no number stays an option (see TestNegativeNumbers)
    "window_not_a_number": (["spectrum", "FILE", "--window", "-1e1x", "10"], "--window: expected 2 arguments"),
    "window_minus_inf": (["spectrum", "FILE", "--window", "-inf", "10"], "--window: expected 2 arguments"),
    # refused before either file is read, so a missing second file is no answer
    "delta_two_files": (["germ", "delta", "FILE", "no_such_file.json"], "germ delta takes one germ file"),
    "nodal_split_total_self": (
        ["closed", "nodal-split", "--total-self", "0"], "unrecognized arguments: --total-self 0"
    ),
    "nodal_split_zero_component": (
        ["closed", "nodal-split", "--components", "2", "0"],
        "bubbling components must have positive first Chern numbers",
    ),
    "nodal_split_wrong_sum": (
        ["closed", "nodal-split", "--components", "1", "2"],
        "component Chern numbers (1, 2) do not sum to 2",
    ),
}

# input files that json.dumps cannot write: (command, text, rest, message start)
DEEP = "[" * 100_000 + "]" * 100_000
MALFORMED_TEXT = {
    "germ_integer_past_digit_limit": (
        "germ delta", '{"p": [[' + "9" * 5000 + ", 1, 0, 1]]}", [], "malformed JSON in germ file: Exceeds"
    ),
    "germ_nested_too_deep": ("germ delta", DEEP, [], "malformed JSON in germ file: maximum recursion"),
    "scene_nested_too_deep": ("curve", DEEP, ["page"], "malformed JSON in scene file: maximum recursion"),
    "loop_nested_too_deep": ("spectrum", DEEP, [], "malformed JSON in loop file: maximum recursion"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("defect", sorted(MALFORMED))
    def test_exits_one_with_error_line(self, defect, tmp_path, capsys):
        command, payload, rest, fragment = MALFORMED[defect]
        path = write(tmp_path / "input.json", payload)
        code, out, err = run(capsys, *command.split(), path, *rest)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and fragment in err
        assert "Traceback" not in err

    def test_overflowing_loop_warns_nothing(self, tmp_path):
        _, payload, rest, _ = MALFORMED["loop_overflow"]
        path = write(tmp_path / "loop.json", payload)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        argv = [sys.executable, "-m", "siefring_kit.cli", "spectrum", path, *rest]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "error: loop overflows: its cos and sin entries sum beyond the float range\n"
        )

    @pytest.mark.parametrize("case", sorted(MALFORMED_COMMAND_LINES))
    def test_command_line_exits_one_with_error_line(self, case, tmp_path, capsys):
        argv, fragment = MALFORMED_COMMAND_LINES[case]
        germ = write(tmp_path / "a.json", GERM_35)
        code, out, err = run(capsys, *[germ if a == "FILE" else a for a in argv])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and fragment in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["-h"], ["audit", "-h"], ["closed", "cp2", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: ") and captured.err == ""

    @pytest.mark.parametrize("defect", [d for d in sorted(MALFORMED) if d.startswith("oracle_")])
    def test_pair_oracle_refuses_the_same(self, defect, tmp_path, capsys):
        _, payload, rest, fragment = MALFORMED[defect]
        a = write(tmp_path / "a.json", payload)
        b = write(tmp_path / "b.json", GERM_46)
        code, out, err = run(capsys, "germ", "oracle", a, b, *rest)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and fragment in err and err.count("\n") == 1

    @pytest.mark.parametrize("defect", sorted(MALFORMED_TEXT))
    def test_undecodable_text_exits_one(self, defect, tmp_path, capsys):
        command, text, rest, message = MALFORMED_TEXT[defect]
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, *command.split(), str(path), *rest)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_duplicate_key_is_refused(self, tmp_path, capsys):
        # json keeps the last "p": (z^2, z^5) has delta 2, where the first, z, gives 0
        embedded = json.dumps({"p": [[0, 1, 0, 1], [1, 1, 0, 1]], "q": GERM_35["q"]})
        path = tmp_path / "germ.json"
        path.write_text(embedded[:-1] + ', "p": [[0, 1, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1]]}', encoding="utf-8")
        assert run(capsys, "germ", "delta", str(path)) == (1, "", "error: duplicate key 'p' in germ file\n")
        path.write_text(embedded, encoding="utf-8")
        assert run(capsys, "germ", "delta", str(path)) == (0, "0\n", "")

    def test_undecodable_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "loop.json"
        path.write_bytes(b'{"modes": [\xff]}')
        code, _, err = run(capsys, "spectrum", str(path))
        assert code == 1
        assert err.startswith("error: cannot read loop file")

    def test_unknown_golden_scene(self):
        with pytest.raises(InputError) as refusal:
            cli.golden_scene("nope")
        assert str(refusal.value) == (
            "unknown golden scene 'nope'; choose from "
            "('closed_ruled', 'orbit_cylinder', 'planar_page', 'nodal_split')"
        )


def _rename_cover(key):
    def edit(data):
        covers = data["orbits"][0]["covers"]
        covers[key] = covers.pop("1")

    return edit


class TestStrictInputs:
    @pytest.mark.parametrize("key", ["1_0", " 2", "+1", "01", "-1", "x"])
    def test_cover_key_must_be_plain_integer(self, key, tmp_path, capsys):
        # int() alone reads "1_0" as 10 and " 2" as 2
        path = write(tmp_path / "scene.json", _planar_page(_rename_cover(key)))
        code, out, err = run(capsys, "curve", path, "page")
        assert code == 1
        assert out == ""
        assert err == f"error: cover multiplicity {key!r} is not a plain positive integer\n"

    def test_cutoff_refused_before_allocating(self, tmp_path, capsys, monkeypatch):
        from siefring_kit import spectrum

        allocations = []
        monkeypatch.setattr(spectrum.np, "zeros", lambda *a, **kw: allocations.append(a))
        loop = write(tmp_path / "loop.json", LOOP_IDENTITY)
        code, out, err = run(capsys, "spectrum", loop, "--cutoff", "1000000")
        assert code == 1
        assert out == ""
        assert err.startswith("error: cutoff too large")
        assert allocations == []

    def test_broken_germ_invariant_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.germs, "_resultant", lambda f, g, domain=None: 3)
        a = write(tmp_path / "a.json", GERM_35)
        code, out, err = run(capsys, "germ", "delta", a)
        assert code == 3
        assert out == ""
        assert err.startswith("error: exact germ invariant broken")

    def test_shared_component_guard_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.germs, "_resultant", lambda f, g, domain=None: None)
        a = write(tmp_path / "a.json", GERM_35)
        code, out, err = run(capsys, "germ", "delta", a)
        assert (code, out) == (3, "")
        assert err == "error: exact germ invariant broken: divided differences share a component\n"

    def test_import_leaves_sympy_unloaded(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        check = "import siefring_kit.cli, sys; assert 'sympy' not in sys.modules"
        subprocess.run([sys.executable, "-c", check], env=env, check=True)

    def test_scene_commands_leave_numpy_unloaded(self, tmp_path, capsys):
        # only spectrum and germ compute with numpy; the rest must not load it
        bad = write(tmp_path / "bad.json", MALFORMED["scene_missing_id"][1])
        commands = [
            ["closed", "cp2", "--degree", "4"],
            ["closed", "adjunction", "--self-pairing", "4", "--c1", "6"],
            ["closed", "nodal-split"],
            ["curve", "planar_page", "page"],
            ["star", "planar_page", "page", "binding_cylinder"],
            ["curve", bad, "page"],
            ["audit", "planar_page", "--seed", "-1"],
            ["audit", "planar_page", "--shifts", "5", "--seed", "3"],
        ]
        expected = [run(capsys, *argv)[:2] for argv in commands]
        assert [code for code, _ in expected] == [0, 0, 0, 0, 0, 1, 1, 0]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        check = (
            "import contextlib, io, json, sys, siefring_kit.cli as c\n"
            "runs = []\n"
            f"for argv in {commands!r}:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
            "        runs.append([c.main(argv), out.getvalue()])\n"
            "print(json.dumps([runs, [m for m in ('numpy', 'sympy') if m in sys.modules]]))\n"
        )
        done = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        runs, loaded = json.loads(done.stdout)
        assert loaded == []
        assert [tuple(r) for r in runs] == expected

    def test_exact_germ_commands_run_no_numpy_code(self, tmp_path, capsys):
        # germs binds numpy lazily: an order the Newton-polygon edges certify,
        # one from Fulton's algorithm, a zero resultant and a refused file run
        # none of it, while the oracle does.  A lazy placeholder may stand
        # under "numpy", so the test is whether numpy._core was imported
        a, b = write(tmp_path / "a.json", GERM_35), write(tmp_path / "b.json", GERM_46)
        bad = write(tmp_path / "bad.json", MALFORMED["germ_float"][1])
        # (z^3, z^4) against (z^3, z^4 + z^5): tangent, so the edges cannot certify
        one, zero = [1, 1, 0, 1], [0, 1, 0, 1]
        c = write(tmp_path / "c.json", {"p": [zero] * 3 + [one], "q": [zero] * 4 + [one]})
        d = write(tmp_path / "d.json", {"p": [zero] * 3 + [one], "q": [zero] * 4 + [one, one]})
        exact = [["germ", "iota", a, b], ["germ", "delta", a], ["germ", "delta", bad]]
        exact += [["germ", "iota", c, d], ["germ", "iota", a, a]]
        numeric = [["germ", "oracle", a, b]]
        expected = [run(capsys, *argv)[:2] for argv in exact + numeric]
        assert expected == [(0, "18\n"), (0, "4\n"), (1, ""), (0, "13\n"), (1, ""), (0, "18\n")]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        check = (
            "import contextlib, io, json, sys, siefring_kit.germs\n"
            "bare = 'numpy._core' in sys.modules\n"
            "import siefring_kit.cli as c\n"
            "runs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
            "        runs.append([c.main(argv), out.getvalue()])\n"
            "    runs[-1].append('numpy._core' in sys.modules)\n"
            "print(json.dumps([bare, runs]))\n"
        )

        def fresh(commands):
            done = subprocess.run(
                [sys.executable, "-c", check, json.dumps(commands)], env=env, capture_output=True, text=True
            )
            assert done.returncode == 0, done.stderr
            return json.loads(done.stdout)

        # the oracle runs in an interpreter of its own, since numpy stays loaded
        (bare, runs), (_, oracle) = fresh(exact), fresh(numeric)
        assert not bare
        assert [tuple(r[:2]) for r in runs + oracle] == expected
        assert [r[2] for r in runs + oracle] == [False, False, False, False, False, True]

    def test_far_zero_germ_commands_run_no_numpy_code(self, tmp_path, capsys):
        # v = (z - z^2, z^2 - z^3) maps z = 1 to the origin: the edges of
        # neither resultant are apart, and the domain check that refuses it
        # is a gcd over Q(i), so neither refusal imports numpy
        one, zero, minus = [1, 1, 0, 1], [0, 1, 0, 1], [-1, 1, 0, 1]
        u = write(tmp_path / "u.json", {"p": [zero, one], "q": [zero, zero, one]})
        v = write(tmp_path / "v.json", {"p": [zero, one, minus], "q": [zero, zero, one, minus]})
        commands = [["germ", "iota", u, v], ["germ", "delta", v]]
        expected = [run(capsys, *argv) for argv in commands]
        assert expected == [
            (1, "", "error: germ domain too large, rescale input: second germ passes through "
             "the first germ's basepoint fiber away from 0\n"),
            (1, "", "error: germ domain too large, rescale input: germ has self-intersection "
             "parameters in the z = 0 fiber away from 0\n"),
        ]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        check = (
            "import contextlib, io, json, sys, siefring_kit.cli as c\n"
            "runs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        code = c.main(argv)\n"
            "    runs.append([code, out.getvalue(), err.getvalue(), 'numpy._core' in sys.modules])\n"
            "print(json.dumps(runs))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", check, json.dumps(commands)], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        runs = json.loads(done.stdout)
        assert [tuple(r[:3]) for r in runs] == expected
        assert [r[3] for r in runs] == [False, False]

    def test_refused_loop_files_run_no_numpy_or_scene_code(self, tmp_path, capsys):
        # spectrum binds numpy and core lazily: a loop file that the JSON
        # rules refuse exits 1 before either runs, while a well-formed loop
        # runs both.  Lazy placeholders may stand under both names, so the
        # test is whether numpy._core was imported and core's module run
        refused = {
            "must be a finite number, got nan": _loop_mode(cos=[[float("nan"), 0.0], [0.0, 1.0]]),
            "unknown key 'tan'": _loop_mode(tan=[[1.0, 0.0], [0.0, 1.0]]),
            "'n' in loop mode must be an integer": _loop_mode(n=1.5),
            "'cos' in loop mode must be an array, got 0.0": _loop_mode(cos=[[1.0, 0.0], 0.0]),
        }
        paths = [write(tmp_path / f"bad{i}.json", loop) for i, loop in enumerate(refused.values())]
        good = write(tmp_path / "good.json", LOOP_IDENTITY)
        commands = [["spectrum", path] for path in paths] + [["spectrum", good]]
        results = [run(capsys, *argv) for argv in commands]
        assert [code for code, _, _ in results] == [1, 1, 1, 1, 0]
        assert all(fragment in err for fragment, (_, _, err) in zip(refused, results))
        expected = [result[:2] for result in results]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        check = (
            "import contextlib, io, json, sys, types, siefring_kit.cli as c\n"
            "def ran(name):\n"
            "    return type(sys.modules.get(name)) is types.ModuleType\n"
            "runs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
            "        runs.append([c.main(argv), out.getvalue()])\n"
            "    runs[-1] += ['numpy._core' in sys.modules, ran('siefring_kit.core')]\n"
            "print(json.dumps(runs))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", check, json.dumps(commands)], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        runs = json.loads(done.stdout)
        assert [tuple(r[:2]) for r in runs] == expected
        assert [r[2:] for r in runs] == [[False, False]] * 4 + [[True, True]]

    def test_germ_commands_leave_sympy_unloaded(self, tmp_path):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        a = write(tmp_path / "a.json", GERM_35)
        b = write(tmp_path / "b.json", GERM_46)
        check = (
            "import sys, siefring_kit.germs, siefring_kit.cli as c\n"
            f"codes = [c.main(['germ', 'iota', {a!r}, {b!r}]), c.main(['germ', 'delta', {a!r}]),\n"
            f"         c.main(['germ', 'oracle', {a!r}, {b!r}])]\n"
            "assert codes == [0, 0, 0] and 'sympy' not in sys.modules\n"
        )
        done = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "18\n4\n18\n"
