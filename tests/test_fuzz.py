"""Fuzz test of the command line over mutated scene, loop and germ files,
and over drawn values of its numeric options.

Every input must end in exit code 0, 1, 2 or 3; no exception may escape
``cli.main``; and a nonzero exit prints one line, starting with ``error:``.
An option value that argparse cannot parse is refused by argparse itself:
exit 2, a usage line, and an error line naming the option.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from siefring_kit import cli
from siefring_kit.core import scene_to_dict

# p = z^2, q = z^3 and a partner with the same p
GERM_A = {"p": [[0, 1, 0, 1]] * 2 + [[1, 1, 0, 1]], "q": [[0, 1, 0, 1]] * 3 + [[1, 1, 0, 1]]}
GERM_B = {"p": [[0, 1, 0, 1]] * 2 + [[1, 1, 0, 1]], "q": [[0, 1, 0, 1]] * 4 + [[1, 2, 1, 1]]}
LOOP = {
    "modes": [
        {"n": 0, "cos": [[1.0, 0.0], [0.0, 2.0]], "sin": [[0.0, 0.0], [0.0, 0.0]]},
        {"n": 1, "cos": [[0.5, 0.1], [0.1, -0.5]], "sin": [[0.2, 0.0], [0.0, 0.3]]},
    ]
}

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# numbers JSON can carry, Python's json module included: small ones, and
# non-finite floats and integers beyond any float
NUMBERS = (
    st.integers(-3, 3)
    | st.floats(-4, 4)
    | st.sampled_from([10**400, -(10**400), 2**63, 1.5, 1e300, 1e-320, -0.0])
    | st.floats(allow_nan=True, allow_infinity=True)
)
GARBAGE = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=5,
)


def _paths(value, prefix=()):
    """Every path into a JSON value, the value's own path () included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


@st.composite
def mutated(draw, document):
    """``document`` with one or two entries dropped or replaced by a
    number or by nested garbage."""
    doc = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))[1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        action = draw(st.sampled_from(["drop", "number", "number", "garbage"]))
        if action == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(NUMBERS if action == "number" else GARBAGE)
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code != 0:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "germ_b.json").write_text(json.dumps(GERM_B), encoding="utf-8")
    return directory


def _write(workdir, doc):
    path = workdir / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@FUZZ
@given(doc=mutated(scene_to_dict(cli.golden_scene("planar_page"))))
def test_scene_commands(workdir, doc):
    path = _write(workdir, doc)
    _check(["curve", path, "page"])
    _check(["star", path, "page", "binding_cylinder"])
    _check(["audit", path, "--shifts", "2"])


@FUZZ
@given(doc=mutated(LOOP))
def test_spectrum_command(workdir, doc):
    path = _write(workdir, doc)
    _check(["spectrum", path, "--cutoff", "8", "--window", "-5", "5"])


@FUZZ
@given(doc=mutated(GERM_A))
def test_germ_commands(workdir, doc):
    path, partner = _write(workdir, doc), str(workdir / "germ_b.json")
    _check(["germ", "iota", path, partner])
    _check(["germ", "delta", path])
    _check(["germ", "oracle", path])
    _check(["germ", "oracle", path, partner])


def _check_options(argv):
    """``_check``, or argparse's own refusal of an option value."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        lines = err.getvalue().splitlines()
        assert exc.code == 2 and out.getvalue() == "", (argv, exc.code)
        assert lines[0].startswith("usage: ") and ": error: argument" in lines[-1], (argv, lines)
        return
    _check(argv)


# an audit runs one trial per shift, so shift draws above 3 are left out
SHIFTS = NUMBERS.filter(lambda n: not isinstance(n, int) or n <= 3)


def _options(**drawn):
    """``--name=value`` for every drawn option; None leaves it at its default."""
    return [f"--{name}={value}" for name, value in drawn.items() if value is not None]


# most draws stop in argparse (a float for an int option), so options are
# also left out, and this test takes more examples than the file mutations,
# to reach each computation often
@settings(FUZZ, max_examples=150)
@given(
    seed=st.none() | NUMBERS,
    shifts=st.none() | SHIFTS,
    epsilon=st.none() | NUMBERS,
    radius=st.none() | NUMBERS,
    cutoff=st.none() | NUMBERS,
    degree=NUMBERS,
    window=st.none() | st.tuples(NUMBERS, NUMBERS),
)
def test_numeric_options(workdir, seed, shifts, epsilon, radius, cutoff, degree, window):
    germ_a, germ_b = _write(workdir, GERM_A), str(workdir / "germ_b.json")
    loop = workdir / "loop.json"
    loop.write_text(json.dumps(LOOP), encoding="utf-8")
    _check_options(["audit", "planar_page", *_options(shifts=shifts, seed=seed)])
    oracle = _options(epsilon=epsilon, radius=radius, seed=seed)
    _check_options(["germ", "oracle", germ_a, *oracle])
    _check_options(["germ", "oracle", germ_a, germ_b, *oracle])
    bounds = ["--window", *map(str, window)] if window is not None else []
    _check_options(["spectrum", str(loop), *_options(cutoff=cutoff), *bounds])
    _check_options(["closed", "cp2", f"--degree={degree}"])
