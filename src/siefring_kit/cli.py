"""Batch command-line front end.

Subcommands parse scene/loop/germ files, dispatch to the computation
modules, and emit deterministic JSON (or bare integers for the germ
calculators).  Exit codes: 0 success, 1 input error (a malformed command
line included), 2 scene inconsistency, 3 invariance breach or broken exact
germ invariant.

A subcommand runs only the layers it uses: every layer (``audit``,
``closed``, ``core``, ``germs``, ``intersection`` and ``spectrum``) is
bound here by ``_lazy.lazy_import`` and runs on its first attribute
access, and only ``errors`` and ``jsonio`` are imported eagerly.  So
``closed`` and ``germ`` run no scene code, and only the subcommands that
compute with numpy load it.  ``audit`` draws its twists from the
standard library and never does; ``spectrum`` and ``germs`` bind numpy
through the same lazy import, so ``spectrum`` loads it, and ``core``,
only once a loop file passes the JSON rules, ``germ iota`` and ``germ
delta`` only where the Newton-polygon edges cannot certify an order, and
``germ oracle`` always.  Names that must stay bound at module level:
``audit_scene`` and ``germs``, which tests monkeypatch, and, after
``import siefring_kit.cli``, a ``sys.modules`` entry for every layer the
traced benchmark run wraps (``perfbench/spans.py`` ``TRACED``).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from importlib import resources

from ._lazy import lazy_import
from .errors import InconsistencyError, InputError, InvarianceError
from .jsonio import canonical_dumps, read_seed


# every layer runs on first use, so a subcommand imports only the layers it uses
audit = lazy_import(f"{__package__}.audit")
closed = lazy_import(f"{__package__}.closed")
core = lazy_import(f"{__package__}.core")
germs = lazy_import(f"{__package__}.germs")
intersection = lazy_import(f"{__package__}.intersection")
spectrum = lazy_import(f"{__package__}.spectrum")


def audit_scene(scene: core.Scene, shifts: int, seed: int) -> dict:
    """``audit.audit_scene`` under a name of this module, which tests patch,
    bound without running ``audit``."""
    return audit.audit_scene(scene, shifts=shifts, seed=seed)


GOLDEN_SCENES = ("closed_ruled", "orbit_cylinder", "planar_page", "nodal_split")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONSISTENT = 2
EXIT_INVARIANCE = 3


def golden_scene(name: str) -> core.Scene:
    """Load one of the scenes shipped with the package."""
    if name not in GOLDEN_SCENES:
        raise InputError(f"unknown golden scene {name!r}; choose from {GOLDEN_SCENES}")
    with resources.as_file(resources.files("siefring_kit").joinpath(f"scenes/{name}.json")) as path:
        return core.load_scene(path)


def _resolve_scene(ref: str) -> core.Scene:
    """A scene argument is a file path, or the name of a shipped scene."""
    if os.path.exists(ref):
        return core.load_scene(ref)
    if ref in GOLDEN_SCENES:
        return golden_scene(ref)
    raise InputError(
        f"scene {ref!r} is neither a readable file nor one of the shipped scenes "
        f"{GOLDEN_SCENES}"
    )


def _emit(obj) -> None:
    sys.stdout.write(canonical_dumps(obj))


def _seed(args) -> int:
    """``--seed``, read before any file, so its refusal comes first."""
    return read_seed(args.seed)


def _cmd_spectrum(args) -> int:
    loop = spectrum.load_loop(args.file)
    report = spectrum.spectrum_report(loop, args.cutoff, args.window[0], args.window[1])
    _emit(report)
    return EXIT_OK


def _cmd_curve(args) -> int:
    scene = _resolve_scene(args.scene)
    report = intersection.curve_report(scene, args.curve)
    _emit(report)
    return EXIT_OK


def _cmd_star(args) -> int:
    scene = _resolve_scene(args.scene)
    _emit({"u": args.u, "v": args.v, "star": intersection.star(scene, args.u, args.v)})
    return EXIT_OK


def _cmd_audit(args) -> int:
    seed = _seed(args)
    scene = _resolve_scene(args.scene)
    report = audit_scene(scene, shifts=args.shifts, seed=seed)
    _emit(report)
    if report["breaches"]:
        raise InvarianceError(
            "invariance breach in: "
            + ", ".join(sorted({b["quantity"] for b in report["breaches"]}))
        )
    return EXIT_OK


def _cmd_germ(args) -> int:
    if args.germ_op == "iota" and args.b is None:
        raise InputError("germ iota needs two germ files")
    if args.germ_op == "delta" and args.b is not None:
        raise InputError("germ delta takes one germ file")
    if args.germ_op == "oracle":
        perturbation = {"epsilon": args.epsilon, "radius": args.radius, "seed": _seed(args)}
    u = germs.load_germ(args.a)  # the second file is read only where it is used
    if args.germ_op == "iota":
        value = germs.local_intersection(u, germs.load_germ(args.b))
    elif args.germ_op == "delta":
        value = germs.delta_local(u)
    elif args.b is not None:  # oracle
        value = germs.numeric_intersection_oracle(u, germs.load_germ(args.b), **perturbation)
    else:
        value = germs.numeric_double_point_oracle(u, **perturbation)
    sys.stdout.write(f"{value}\n")
    return EXIT_OK


def _cmd_closed(args) -> int:
    if args.closed_op == "cp2":
        _emit(closed.cp2_degree_table(args.degree))
    elif args.closed_op == "adjunction":
        _emit({"genus": args.genus, **closed.adjunction_record(args.self_pairing, args.c1, args.genus)})
    else:  # nodal-split
        result = closed.analyze_nodal_split(component_c1=tuple(args.components))
        _emit(result.as_dict())
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser, its subcommands' included, that refuses a
    malformed command line with ``InputError`` instead of exiting 2, and
    reads -1e1 as a number, where argparse's pattern saw an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="siefring-kit",
        description="Invariant calculators for punctured holomorphic curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalues/windings of a model operator loop")
    sp.add_argument("file", help="spectral-loop JSON file")
    sp.add_argument("--cutoff", type=int, default=32, help="Fourier mode cutoff")
    sp.add_argument(
        "--window", type=float, nargs=2, default=(-10.0, 10.0), metavar=("LO", "HI")
    )
    sp.set_defaults(func=_cmd_spectrum)

    cv = sub.add_parser("curve", help="full invariant report for one curve in a scene")
    cv.add_argument("scene", help="scene JSON file or shipped scene name")
    cv.add_argument("curve", help="curve id")
    cv.set_defaults(func=_cmd_curve)

    st = sub.add_parser("star", help="star-pairing of two curves in a scene")
    st.add_argument("scene")
    st.add_argument("u")
    st.add_argument("v")
    st.set_defaults(func=_cmd_star)

    au = sub.add_parser("audit", help="trivialization-invariance audit of a scene")
    au.add_argument("scene")
    au.add_argument("--shifts", type=int, default=50, help="number of random twists")
    au.add_argument("--seed", type=int, default=0)
    au.set_defaults(func=_cmd_audit)

    gm = sub.add_parser("germ", help="exact and numeric local intersection numbers")
    gm.add_argument("germ_op", choices=("iota", "delta", "oracle"))
    gm.add_argument("a", help="germ JSON file")
    gm.add_argument("b", nargs="?", default=None, help="second germ file (iota/oracle)")
    gm.add_argument("--epsilon", type=float, default=1e-3)
    gm.add_argument("--radius", type=float, default=0.3)
    gm.add_argument("--seed", type=int, default=0)
    gm.set_defaults(func=_cmd_germ)

    cl = sub.add_parser("closed", help="closed-curve adjunction arithmetic")
    clsub = cl.add_subparsers(dest="closed_op", required=True)
    cp2 = clsub.add_parser("cp2", help="degree-d adjunction table in the projective plane")
    cp2.add_argument("--degree", type=int, required=True)
    adj = clsub.add_parser("adjunction", help="delta from self-pairing, c1, genus")
    adj.add_argument("--self-pairing", type=int, required=True, dest="self_pairing")
    adj.add_argument("--c1", type=int, required=True)
    adj.add_argument("--genus", type=int, default=0)
    ns = clsub.add_parser("nodal-split", help="forced invariants of a two-component split")
    ns.add_argument("--components", type=int, nargs=2, default=(1, 1))
    cl.set_defaults(func=_cmd_closed)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InvarianceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANCE
    except InconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
