"""Combinatorial data model for punctured-curve scenes.

A scene bundles Reeb-orbit winding data, curve classes and relative
intersection numbers, all measured against a fixed baseline trivialization
of each simple orbit.  Everything here is immutable; derived quantities
that must not depend on the trivialization are tested against
``shift_scene``, which re-expresses a scene in a twisted trivialization.

Outside data enters through the validating constructors alone: every
class checks its fields in ``__post_init__``, and ``scene_from_dict``
builds through them.  ``shift_scene`` is the one exception.  A twist by
integers moves every winding of a cover by the same integer, so it keeps
each cover's parity, the cover keys and every puncture, and it maps ints
to ints; the shift of a valid scene is therefore valid, and it is built
by ``_trusted`` without checking it again.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .errors import InputError
from .jsonio import JsonObject, read_json, typed

# the factor of an end of each sign in every per-end sum
SIGNS = {"+": 1, "-": -1}


@dataclass(frozen=True)
class CoverData:
    """Extremal winding numbers of one cover of a simple orbit and every
    per-cover rule, each stated once, here."""

    alpha_minus: int
    alpha_plus: int

    def __post_init__(self):
        object.__setattr__(self, "alpha_minus", typed(self.alpha_minus, int, "alpha_minus"))
        object.__setattr__(self, "alpha_plus", typed(self.alpha_plus, int, "alpha_plus"))
        p = self.parity()
        if p not in (0, 1):
            raise InputError(
                "cover data violates nondegeneracy: alpha_plus - alpha_minus "
                f"must be 0 or 1, got {p}"
            )

    def alpha(self, s: int) -> int:
        """The extremal winding alpha_s of factor s: alpha_+ for s > 0,
        alpha_- for s < 0."""
        return self.alpha_plus if s > 0 else self.alpha_minus

    def end_bound(self, s: int) -> int:
        """The winding that bounds an end of factor s on this cover:
        alpha_- at a positive end, alpha_+ at a negative one."""
        return self.alpha(-s)

    def parity(self) -> int:
        """alpha_+ - alpha_-, 0 or 1 on a valid cover."""
        return self.alpha_plus - self.alpha_minus

    def cz_index(self) -> int:
        """Conley-Zehnder index relative to the baseline: 2 alpha_- plus the
        parity, which is alpha_- + alpha_+."""
        return self.alpha_minus + self.alpha_plus

    def sigma_bar(self, k: int, s: int) -> int:
        """Covering multiplicity gcd(k, alpha_s) of the extremal eigenfunction
        of factor s, this being the k-fold cover.  gcd(k, 0) = k, as math.gcd
        gives, counts a winding-0 eigenfunction as fully multiply covered."""
        return math.gcd(k, self.alpha(s))


@dataclass(frozen=True)
class OrbitData:
    """A simple Reeb orbit with winding data for each needed cover.

    ``cover_table[k]`` holds the extremal windings of the k-fold cover
    relative to the baseline trivialization of the simple orbit, pulled
    back to the cover.  The table is explicit per multiplicity because the
    covers' windings are not determined by the k=1 entry alone.
    """

    id: str
    cover_table: dict[int, CoverData]

    def __post_init__(self):
        what = f"orbit {self.id!r}: cover multiplicity"
        table = {}
        for k, cover in self.cover_table.items():
            k = typed(k, int, what)
            if k < 1:
                raise InputError(f"{what} {k!r} invalid")
            table[k] = cover
        object.__setattr__(self, "cover_table", table)

    def cover(self, k: int) -> CoverData:
        try:
            return self.cover_table[typed(k, int, "cover multiplicity")]
        except KeyError:
            raise InputError(f"unknown cover: orbit {self.id!r} has no multiplicity {k}") from None


@dataclass(frozen=True)
class PunctureSpec:
    """One puncture: sign, simple-orbit id, covering multiplicity."""

    sign: str
    orbit: str
    multiplicity: int

    def __post_init__(self):
        if not (isinstance(self.sign, str) and self.sign in SIGNS):
            raise InputError(f"puncture sign must be '+' or '-', got {self.sign!r}")
        object.__setattr__(self, "multiplicity", typed(self.multiplicity, int, "puncture multiplicity"))
        if self.multiplicity < 1:
            raise InputError(f"puncture multiplicity must be >= 1, got {self.multiplicity}")


@dataclass(frozen=True)
class CurveClass:
    """Topological data of an asymptotically cylindrical curve class.

    ``rel_c1`` is the first Chern number of the pulled-back tangent bundle
    relative to the baseline trivializations; like the pairing entries it
    is user input, since it cannot be derived from combinatorics alone.

    ``ends`` maps (sign, orbit id) to {cover k: number of ends}, each in
    order of first appearance among the punctures; every per-end sum reads
    it, one term per distinct cover weighted by its count.  ``end_sums``
    maps each such group to its sum k * count, which a twist of the group's
    orbit scales (``shift_scene``).  Both are attributes, not fields, so
    equality and repr see only the data.
    """

    id: str
    genus: int
    punctures: tuple[PunctureSpec, ...]
    rel_c1: int
    ambient_dim_half: int = 2

    def __post_init__(self):
        for name in ("genus", "rel_c1", "ambient_dim_half"):
            value = typed(getattr(self, name), int, f"curve {self.id!r}: {name}")
            object.__setattr__(self, name, value)
        if self.genus < 0:
            raise InputError(f"curve {self.id!r}: genus must be >= 0")
        if self.ambient_dim_half < 2:
            raise InputError(f"curve {self.id!r}: ambient_dim_half must be >= 2")
        object.__setattr__(self, "punctures", tuple(self.punctures))
        ends = {}
        for p in self.punctures:
            covers = ends.setdefault((p.sign, p.orbit), {})
            covers[p.multiplicity] = covers.get(p.multiplicity, 0) + 1
        object.__setattr__(self, "ends", ends)
        sums = {key: sum(map(operator.mul, ks, ks.values())) for key, ks in ends.items()}
        object.__setattr__(self, "end_sums", sums)


def _pair_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def _symmetric_table(pairs) -> dict[tuple[str, str], int]:
    """Table keyed by sorted curve pairs from ((u, v), value) pairs, each
    value read through ``typed``; the same pair given twice must carry the
    same value."""
    table = {}
    for (u, v), value in pairs:
        key = _pair_key(u, v)
        value = typed(value, int, f"pairing entry for {key}: value")
        if table.setdefault(key, value) != value:
            raise InputError(f"conflicting pairing entries for {key}")
    return table


@dataclass(frozen=True)
class RelativePairing:
    """Symmetric table of relative intersection numbers u .tau v."""

    entries: dict[tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", _symmetric_table(self.entries.items()))

    @staticmethod
    def from_items(items) -> "RelativePairing":
        return RelativePairing(_symmetric_table(((u, v), value) for u, v, value in items))

    def get(self, u: str, v: str) -> int:
        key = _pair_key(u, v)
        try:
            return self.entries[key]
        except KeyError:
            raise InputError(f"missing pairing entry for curves {u!r}, {v!r}") from None

    def has(self, u: str, v: str) -> bool:
        return _pair_key(u, v) in self.entries


@dataclass(frozen=True)
class Scene:
    """A named collection of orbits, curves and pairwise relative data.
    Id lookups use dict indices that are attributes, not fields, so that
    equality and repr see only the data."""

    orbits: tuple[OrbitData, ...]
    curves: tuple[CurveClass, ...]
    pairing: RelativePairing

    def __post_init__(self):
        object.__setattr__(self, "orbits", tuple(self.orbits))
        object.__setattr__(self, "curves", tuple(self.curves))
        orbits = {o.id: o for o in self.orbits}
        if len(orbits) != len(self.orbits):
            raise InputError("duplicate orbit ids in scene")
        curves = {c.id: c for c in self.curves}
        if len(curves) != len(self.curves):
            raise InputError("duplicate curve ids in scene")
        object.__setattr__(self, "_orbit_index", orbits)
        object.__setattr__(self, "_curve_index", curves)
        # each distinct (orbit, cover) is checked once, at its first puncture
        # in curve and puncture order, so the first defect is the one reported
        checked = set()
        for c in self.curves:
            for p in c.punctures:
                end = (p.orbit, p.multiplicity)
                if end in checked:
                    continue
                if p.orbit not in orbits:
                    raise InputError(f"curve {c.id!r} references unknown orbit {p.orbit!r}")
                orbits[p.orbit].cover(p.multiplicity)  # raises if the cover is missing
                checked.add(end)
        for (u, v) in self.pairing.entries:
            if u not in curves or v not in curves:
                raise InputError(f"pairing references unknown curve in pair ({u!r}, {v!r})")

    def orbit(self, orbit_id: str) -> OrbitData:
        try:
            return self._orbit_index[orbit_id]
        except KeyError:
            raise InputError(f"unknown orbit id {orbit_id!r}") from None

    def curve(self, curve_id: str) -> CurveClass:
        try:
            return self._curve_index[curve_id]
        except KeyError:
            raise InputError(f"unknown curve id {curve_id!r}") from None


@dataclass(frozen=True)
class TrivializationShift:
    """Extra integer twists added to the baseline trivialization, per orbit."""

    shifts: dict[str, int]


def sign_factor(sign: str) -> int:
    """The factor +1 of a positive end and -1 of a negative one."""
    try:
        return SIGNS[sign]
    except (KeyError, TypeError):
        raise InputError(f"sign must be '+' or '-', got {sign!r}") from None


def euler_char(curve: CurveClass) -> int:
    """Euler characteristic of the punctured domain: 2 - 2g - #punctures."""
    return 2 - 2 * curve.genus - len(curve.punctures)


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` whose attributes are
    exactly ``fields``, attributes that are not fields included, built
    without ``__init__`` or ``__post_init__``.  Only ``shift_scene`` may
    call it; outside data goes through the validating constructors."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def shift_scene(scene: Scene, shift: TrivializationShift) -> Scene:
    """Re-express a scene after adding twists to baseline trivializations.

    Adding m twists at a simple orbit decreases the windings of its k-fold
    cover by k*m; rel_c1 and the pairing entries transform so that every
    trivialization-independent quantity (index, normal Chern number, the
    star-pairing, spectral covering numbers) is fixed exactly.

    Each twist must name an orbit of the scene and be an integer (read by
    ``typed``); both are refused before anything is built.  The result is
    then built without validating it again: integer twists keep each
    cover's parity alpha_+ - alpha_-, the cover keys and every puncture, and
    map ints to ints, so the shift of a valid scene is valid.  It reuses
    each curve's punctures, end index and end sums and the pairing's
    normalized keys, and computes only the windings, rel_c1 and the pairing
    values.
    """
    m = {o.id: 0 for o in scene.orbits}
    for oid, twist in shift.shifts.items():
        scene.orbit(oid)  # raises on unknown ids
        m[oid] = typed(twist, int, f"orbit {oid!r}: twist")

    orbits = []
    for o in scene.orbits:
        t = m[o.id]
        covers = {
            k: _trusted(CoverData, alpha_minus=c.alpha_minus - k * t, alpha_plus=c.alpha_plus - k * t)
            for k, c in o.cover_table.items()
        }
        orbits.append(_trusted(OrbitData, id=o.id, cover_table=covers))

    # both corrections are bilinear in the multiplicities, so they are sums
    # over end groups: rel_c1 gains sum s m_o (sum k) over the groups of the
    # curve, u . v gains sum s m_o (sum k_u)(sum k_v) over the groups u and v
    # share, with s the sign factor and m_o the twist of the group's orbit;
    # sum k is each cover k of the group times its count (``end_sums``)
    sums = {c.id: c.end_sums for c in scene.curves}
    weights = {
        cid: {key: SIGNS[key[0]] * m[key[1]] * total for key, total in curve_sums.items()}
        for cid, curve_sums in sums.items()
    }
    curves = [
        _trusted(
            CurveClass,
            id=c.id,
            genus=c.genus,
            punctures=c.punctures,
            rel_c1=c.rel_c1 + sum(weights[c.id].values()),
            ambient_dim_half=c.ambient_dim_half,
            ends=c.ends,
            end_sums=c.end_sums,
        )
        for c in scene.curves
    ]

    entries = {}
    for (u, v), value in scene.pairing.entries.items():
        v_sums = sums[v]
        for key, w in weights[u].items():
            if key in v_sums:
                value += w * v_sums[key]
        entries[u, v] = value
    return _trusted(
        Scene,
        orbits=tuple(orbits),
        curves=tuple(curves),
        pairing=_trusted(RelativePairing, entries=entries),
        _orbit_index={o.id: o for o in orbits},
        _curve_index={c.id: c for c in curves},
    )


# -- scene file format -------------------------------------------------------

_SCENE_KEYS = {"orbits", "curves", "pairing"}
_ORBIT_KEYS = {"id", "covers"}
_COVER_KEYS = {"alpha_minus", "alpha_plus"}
_CURVE_KEYS = {"id", "genus", "rel_c1", "ambient_dim_half", "punctures"}
_PUNCTURE_KEYS = {"sign", "orbit", "multiplicity"}
_PAIRING_KEYS = {"u", "v", "bullet"}


def scene_from_dict(data: dict) -> Scene:
    """Build a Scene from the JSON object layout, rejecting unknown keys."""
    top = JsonObject(data, _SCENE_KEYS, "scene", "scene file")
    orbits = []
    for od in top.field("orbits", list, []):
        orbit = JsonObject(od, _ORBIT_KEYS, "orbit", "orbit")
        covers = {}
        for k_str, cd in orbit.field("covers", dict, {}).items():
            where = f"cover {k_str!r} of orbit {od.get('id')!r}"
            cover = JsonObject(cd, _COVER_KEYS, where, where)
            k = int(k_str) if k_str.isascii() and k_str.isdigit() else None
            if str(k) != k_str:  # int() alone reads "1_0" as 10 and " 2" as 2
                raise InputError(f"cover multiplicity {k_str!r} is not a plain positive integer")
            covers[k] = CoverData(*(cover.required(a, int) for a in ("alpha_minus", "alpha_plus")))
        orbits.append(OrbitData(orbit.required("id", str), covers))
    curves = []
    for cd in top.field("curves", list, []):
        curve = JsonObject(cd, _CURVE_KEYS, "curve", "curve")
        punctures = []
        for pd in curve.field("punctures", list, []):
            where = f"puncture of curve {cd.get('id')!r}"
            puncture = JsonObject(pd, _PUNCTURE_KEYS, where, where)
            sign, orbit_id = (puncture.required(key, str) for key in ("sign", "orbit"))
            punctures.append(PunctureSpec(sign, orbit_id, puncture.required("multiplicity", int)))
        curves.append(
            CurveClass(
                curve.required("id", str),
                curve.field("genus", int, 0),
                tuple(punctures),
                curve.required("rel_c1", int),
                curve.field("ambient_dim_half", int, 2),
            )
        )
    items = []
    for pd in top.field("pairing", list, []):
        entry = JsonObject(pd, _PAIRING_KEYS, "pairing entry", "pairing entry")
        u, v = (entry.required(key, str) for key in ("u", "v"))
        items.append((u, v, entry.required("bullet", int)))
    return Scene(tuple(orbits), tuple(curves), RelativePairing.from_items(items))


def scene_to_dict(scene: Scene) -> dict:
    return {
        "orbits": [
            {
                "id": o.id,
                "covers": {
                    str(k): {"alpha_minus": c.alpha_minus, "alpha_plus": c.alpha_plus}
                    for k, c in sorted(o.cover_table.items())
                },
            }
            for o in scene.orbits
        ],
        "curves": [
            {
                "id": c.id,
                "genus": c.genus,
                "rel_c1": c.rel_c1,
                "ambient_dim_half": c.ambient_dim_half,
                "punctures": [
                    {"sign": p.sign, "orbit": p.orbit, "multiplicity": p.multiplicity}
                    for p in c.punctures
                ],
            }
            for c in scene.curves
        ],
        "pairing": [
            {"u": u, "v": v, "bullet": value}
            for (u, v), value in sorted(scene.pairing.entries.items())
        ],
    }


def load_scene(path) -> Scene:
    return scene_from_dict(read_json(path, "scene"))
