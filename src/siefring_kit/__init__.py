"""Invariant calculators for punctured pseudoholomorphic curves.

Subpackages:

- ``core``: orbits, curve classes, scenes, trivialization shifts.
- ``spectrum``: the model asymptotic operator on the circle, its
  eigenvalues and eigenfunction windings, and decay-rate fitting.
- ``intersection``: the star-pairing, normal Chern number, index,
  spectral covering numbers and adjunction bookkeeping.
- ``closed``: adjunction arithmetic for closed curves.
- ``germs``: exact local intersection numbers of polynomial map germs,
  with an independent floating-point oracle.
- ``audit``: trivialization-invariance checks.
- ``cli``: the ``siefring-kit`` command-line front end.

The scene names below are read from ``core`` on first use, so importing
the package, or a layer that needs no scene, does not run ``core``.
"""

from .errors import InconsistencyError, InputError, InvarianceError, SiefringKitError

__version__ = "0.1.0"

__all__ = [
    "CoverData",
    "CurveClass",
    "InconsistencyError",
    "InputError",
    "InvarianceError",
    "OrbitData",
    "PunctureSpec",
    "RelativePairing",
    "Scene",
    "SiefringKitError",
    "TrivializationShift",
    "cz_index",
    "euler_char",
    "load_scene",
    "parity",
    "shift_scene",
    "sigma_bar",
    "__version__",
]


def __getattr__(name):
    """A scene name of ``core``, imported on its first use: the names of
    ``__all__`` not bound above."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import core

    return getattr(core, name)
