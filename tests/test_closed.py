import numpy as np
import pytest

from siefring_kit.closed import (
    Disjointness,
    adjunction_record,
    analyze_nodal_split,
    cn_closed,
    cp2_degree_table,
    delta_closed,
    delta_closed_inverse,
    disjointness_verdict,
    vdim_closed,
)
from siefring_kit.errors import InconsistencyError, InputError


class TestVdim:
    def test_square_zero_sphere(self):
        assert vdim_closed(2, 0, 2) == 2

    @pytest.mark.parametrize("g", range(5))
    def test_higher_genus_family(self, g):
        assert vdim_closed(2, g, 2 - 2 * g) == 2 - 2 * g

    def test_three_folds(self):
        assert vdim_closed(3, 0, 2) == 4

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            vdim_closed(1, 0, 2)
        with pytest.raises(InputError):
            vdim_closed(2, -1, 2)


class TestNormalChern:
    def test_trivial_normal_bundle(self):
        assert cn_closed(2, 0) == 0

    def test_exceptional_sphere(self):
        assert cn_closed(1, 0) == -1

    def test_torus(self):
        assert cn_closed(0, 1) == 0


class TestDeltaClosed:
    def test_embedded_sphere(self):
        assert delta_closed(0, 2, 0) == 0

    @pytest.mark.parametrize("d", range(1, 51))
    def test_projective_plane_degrees(self, d):
        assert delta_closed(d * d, 3 * d, 0) == (d - 1) * (d - 2) // 2

    def test_embedded_iff_degree_at_most_two(self):
        for d in range(1, 10):
            embedded = delta_closed(d * d, 3 * d, 0) == 0
            assert embedded == (d <= 2)

    def test_odd_case_contradiction(self):
        with pytest.raises(InconsistencyError, match="odd|even nonnegative"):
            delta_closed(0, 1, 0)

    def test_negative_case_contradiction(self):
        with pytest.raises(InconsistencyError):
            delta_closed(-4, 2, 0)


class TestNodalSplit:
    def test_balanced_split_forced_values(self):
        result = analyze_nodal_split((1, 1))
        assert result.possible
        assert result.delta_plus == 0 and result.delta_minus == 0
        assert result.cross_pairing == 1
        assert result.self_pairing_plus == -1 and result.self_pairing_minus == -1
        assert "exceptional" in result.verdict

    def test_unbalanced_split_rejected(self):
        with pytest.raises(InputError, match="positive first Chern"):
            analyze_nodal_split((2, 0))

    def test_wrong_sum_rejected(self):
        with pytest.raises(InputError, match="sum"):
            analyze_nodal_split((2, 1))

    def test_full_chain_reproduces_component_table(self):
        # the deduced invariants satisfy the adjunction identities they came from
        result = analyze_nodal_split((1, 1))
        for self_pairing, delta in (
            (result.self_pairing_plus, result.delta_plus),
            (result.self_pairing_minus, result.delta_minus),
        ):
            assert self_pairing == 2 * delta + cn_closed(1, 0)
        total = (
            result.self_pairing_plus
            + result.self_pairing_minus
            + 2 * result.cross_pairing
        )
        assert total == 0


class TestDisjointness:
    def test_zero_means_disjoint(self):
        assert disjointness_verdict(0) is Disjointness.DISJOINT_OR_IDENTICAL

    def test_positive_means_intersecting(self):
        assert disjointness_verdict(1) is Disjointness.INTERSECTING

    def test_negative_is_inconsistent(self):
        with pytest.raises(InconsistencyError, match="positivity"):
            disjointness_verdict(-1)


class TestCp2Table:
    def test_degree_three(self):
        table = cp2_degree_table(3)
        assert table == {
            "degree": 3,
            "self_pairing": 9,
            "c1": 9,
            "c_N": 7,
            "delta": 1,
            "embedded": False,
        }

    def test_conic_embedded(self):
        assert cp2_degree_table(2)["embedded"] is True


class TestAdjunctionRecord:
    """One record of the adjunction data, which ``closed adjunction`` and
    the cp2 table print with their genus or degree."""

    def test_the_cp2_table_is_the_record_with_its_degree(self):
        for d in range(1, 7):
            assert cp2_degree_table(d) == {"degree": d, **adjunction_record(d * d, 3 * d, 0)}

    @pytest.mark.parametrize("args", [(True, 1.5, -1), (4, 1.5, -1), (4, 6, -1), (4, 6, 1.5), (0, 1, 0), (-4, 2, 0)])
    def test_refused_as_delta_closed_refuses(self, args):
        refusals = []
        for f in (adjunction_record, delta_closed):
            with pytest.raises((InputError, InconsistencyError)) as info:
                f(*args)
            refusals.append((type(info.value), str(info.value)))
        assert refusals[0] == refusals[1]


# (function, valid integer arguments); the nodal split's component pair is
# passed as its two entries, numbered as cases 2 and 3 after the square-zero
# self-intersection and c1 = 2 that the split is fixed to
COUNT_CALLS = {
    "vdim_closed": (vdim_closed, (3, 1, 2)),
    "cn_closed": (cn_closed, (2, 1)),
    "delta_closed": (delta_closed, (4, 6, 0)),
    "delta_closed_inverse": (delta_closed_inverse, (1, 6, 0)),
    "disjointness_verdict": (disjointness_verdict, (1,)),
    "analyze_nodal_split": (lambda a, b: analyze_nodal_split((a, b)).as_dict(), (1, 1)),
    "adjunction_record": (adjunction_record, (4, 6, 0)),
    "cp2_degree_table": (cp2_degree_table, (3,)),
}
CASE_OFFSET = {"analyze_nodal_split": 2}
COUNT_CASES = [
    pytest.param(name, i, id=f"{name}-{i + CASE_OFFSET.get(name, 0)}")
    for name, (_, args) in COUNT_CALLS.items()
    for i in range(len(args))
]


def _call_with(name, i, value):
    """The named call with its i-th count argument replaced by value."""
    f, args = COUNT_CALLS[name]
    return f(*args[:i], value, *args[i + 1 :])


class TestCountArguments:
    """Every count argument is read through ``typed``: a bool or a float is
    refused, a numpy integer counts as the int it equals."""

    @pytest.mark.parametrize("name, i", COUNT_CASES)
    @pytest.mark.parametrize("bad", [True, 1.5])
    def test_bool_and_float_refused(self, name, i, bad):
        with pytest.raises(InputError, match=rf"must be an integer, got {bad!r}"):
            _call_with(name, i, bad)

    @pytest.mark.parametrize("name, i", COUNT_CASES)
    def test_numpy_integer_is_the_int(self, name, i):
        f, args = COUNT_CALLS[name]
        # repr tells np.int64(3) from 3, also inside a dict
        assert repr(_call_with(name, i, np.int64(args[i]))) == repr(f(*args))

    def test_cp2_degree_is_an_int(self):
        assert cp2_degree_table(np.int64(3))["degree"] == 3
        assert type(cp2_degree_table(np.int64(3))["degree"]) is int
        with pytest.raises(InputError, match="degree must be an integer, got True"):
            cp2_degree_table(True)

    def test_range_messages_kept(self):
        with pytest.raises(InputError, match="ambient half-dimension must be >= 2, got 1"):
            vdim_closed(np.int64(1), 0, 2)
        with pytest.raises(InputError, match="genus must be >= 0, got -1"):
            cn_closed(2, np.int64(-1))
        with pytest.raises(InputError, match="degree must be >= 1, got 0"):
            cp2_degree_table(np.int64(0))
        with pytest.raises(InputError, match=r"component Chern numbers \(2, 1\) do not sum to 2"):
            analyze_nodal_split((2, 1))
