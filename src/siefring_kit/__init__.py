"""Invariant calculators for punctured pseudoholomorphic curves.

Modules:

- ``core``: orbits, curve classes, scenes, trivialization shifts.
- ``spectrum``: the model asymptotic operator on the circle, its
  eigenvalues and eigenfunction windings, and decay-rate fitting.
- ``intersection``: the star-pairing, normal Chern number, index,
  spectral covering numbers and adjunction bookkeeping.
- ``closed``: adjunction arithmetic for closed curves.
- ``germs``: exact local intersection numbers of polynomial map germs,
  with an independent floating-point oracle.
- ``winding``: certified windings of trigonometric polynomials, read by
  both floating-point engines.
- ``audit``: trivialization-invariance checks.
- ``cli``: the ``siefring-kit`` command-line front end.
"""

from .errors import InconsistencyError, InputError, InvarianceError, SiefringKitError

__version__ = "0.1.0"

__all__ = [
    "InconsistencyError",
    "InputError",
    "InvarianceError",
    "SiefringKitError",
    "__version__",
]
