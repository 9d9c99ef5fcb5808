import pytest
from hypothesis import given, strategies as st

from conftest import meets_spec
from fairleak.core import (
    AttackInstance,
    FairnessMetric,
    FairnessSpec,
    reconstruction_accuracy,
    slice_for_metric,
    unfairness,
    unfairness_exact,
)
from fairleak.errors import BadParameters, EmptySlice, EmptyVector, LengthMismatch

SP, PE, EO, EODDS = (
    FairnessMetric.SP,
    FairnessMetric.PE,
    FairnessMetric.EO,
    FairnessMetric.EODDS,
)


class TestUnfairness:
    def test_sp_symmetric_groups(self):
        assert unfairness(SP, [1, 1, 0, 0], [1, 0, 1, 0]) == 0.0

    def test_sp_fully_split(self):
        # overall rate 1/2, group rates 1 and 0
        assert unfairness(SP, [1, 1, 0, 0], [1, 1, 0, 0]) == 0.5

    def test_eo_all_positives_predicted(self):
        assert unfairness(EO, [1, 0], [1, 1], [1, 1]) == 0.0

    def test_pe_is_sp_on_negative_slice(self):
        s = [1, 0, 1, 0, 1]
        yhat = [1, 0, 1, 1, 0]
        y = [0, 0, 0, 1, 1]
        neg = [i for i in range(5) if y[i] == 0]
        assert unfairness(PE, s, yhat, y) == unfairness(
            SP, [s[i] for i in neg], [yhat[i] for i in neg]
        )

    def test_eodds_one_sided_labels_degrades_to_single_slice(self):
        s, yhat, y = [1, 0, 1], [1, 0, 1], [1, 1, 1]
        assert unfairness(EODDS, s, yhat, y) == unfairness(EO, s, yhat, y)

    def test_pe_empty_slice_raises(self):
        with pytest.raises(EmptySlice):
            unfairness(PE, [1, 0], [1, 0], [1, 1])

    def test_empty_input_raises(self):
        with pytest.raises(EmptySlice):
            unfairness(SP, [], [])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            unfairness(SP, [1, 0], [1, 0, 1])

    def test_single_group_has_zero_gap(self):
        assert unfairness(SP, [1, 1, 1], [1, 0, 1]) == 0.0

    def test_multivalued_groups(self):
        # group rates 1, 1/2, 0 against overall 1/2
        assert unfairness(SP, [0, 0, 1, 1, 2, 2], [1, 1, 1, 0, 0, 0]) == 0.5


class TestSatisfies:
    """Spec semantics, through the tests' exact feasibility check."""

    def test_at_exact_boundary(self):
        assert meets_spec(FairnessSpec(SP, 0.5), [1, 1, 0, 0], [1, 1, 0, 0])

    def test_above_tolerance(self):
        assert not meets_spec(FairnessSpec(SP, 0.1), [1, 1, 0, 0], [1, 1, 0, 0])

    def test_epsilon_one_always_true(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 12))
            s = rng.integers(0, 2, n)
            yhat = rng.integers(0, 2, n)
            assert meets_spec(FairnessSpec(SP, 1.0), s, yhat)

    def test_lower_bound(self):
        spec = FairnessSpec(SP, 0.6, epsilon_lower=0.4)
        assert meets_spec(spec, [1, 1, 0, 0], [1, 1, 0, 0])
        assert not meets_spec(spec, [1, 1, 0, 0], [1, 0, 1, 0])

    def test_spec_validation(self):
        with pytest.raises(BadParameters, match=r"^epsilon must lie in \[0, 1\]$"):
            FairnessSpec(SP, 1.5)
        with pytest.raises(BadParameters, match=r"^epsilon_lower must lie in \[0, epsilon\]$"):
            FairnessSpec(SP, 0.1, epsilon_lower=0.2)


class TestSliceForMetric:
    def test_pe_negative_slice(self):
        (idx,) = slice_for_metric(PE, [0, 1, 0])
        assert idx.tolist() == [0, 2]

    def test_eo_positive_slice(self):
        (idx,) = slice_for_metric(EO, [0, 1, 0])
        assert idx.tolist() == [1]

    def test_sp_whole_set(self):
        (idx,) = slice_for_metric(SP, [0, 1, 0])
        assert idx.tolist() == [0, 1, 2]

    def test_eodds_ordered_pair(self):
        neg, pos = slice_for_metric(EODDS, [0, 1, 0])
        assert neg.tolist() == [0, 2]
        assert pos.tolist() == [1]

    def test_empty_slices_permitted(self):
        (idx,) = slice_for_metric(PE, [1, 1])
        assert idx.size == 0


class TestReconstructionAccuracy:
    def test_direct_count(self):
        assert reconstruction_accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)

    def test_identity(self):
        assert reconstruction_accuracy([0, 1, 1], [0, 1, 1]) == 1.0

    def test_total_mismatch(self):
        assert reconstruction_accuracy([0, 0], [1, 1]) == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptyVector):
            reconstruction_accuracy([], [])

    def test_symmetry(self, rng):
        a = rng.integers(0, 3, 40)
        b = rng.integers(0, 3, 40)
        assert reconstruction_accuracy(a, b) == reconstruction_accuracy(b, a)


@st.composite
def labelled_vectors(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return draw(bits), draw(bits), draw(bits)


class TestProperties:
    @given(labelled_vectors(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, vecs, pyrandom):
        s, yhat, y = vecs
        order = list(range(len(s)))
        pyrandom.shuffle(order)
        for metric in (SP, EODDS):
            before = unfairness_exact(metric, s, yhat, y)
            after = unfairness_exact(
                metric,
                [s[i] for i in order],
                [yhat[i] for i in order],
                [y[i] for i in order],
            )
            assert before == after

    @given(labelled_vectors())
    def test_eodds_is_max_of_pe_and_eo(self, vecs):
        s, yhat, y = vecs
        sides = []
        for metric, value in ((PE, 0), (EO, 1)):
            if value in y:
                sides.append(unfairness_exact(metric, s, yhat, y))
        assert unfairness_exact(EODDS, s, yhat, y) == max(sides)

    @given(labelled_vectors())
    def test_constant_predictions_are_fair(self, vecs):
        s, _, _ = vecs
        assert unfairness(SP, s, [1] * len(s)) == 0.0
        assert unfairness(SP, s, [0] * len(s)) == 0.0

    @given(labelled_vectors())
    def test_unfairness_in_unit_interval(self, vecs):
        s, yhat, y = vecs
        assert 0.0 <= unfairness(SP, s, yhat, y) <= 1.0


class TestAttackInstance:
    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            AttackInstance([1, 0], [1, 0], [1], [1.0, 1.0])

    def test_truth_is_optional(self):
        inst = AttackInstance([1], [0], [1], [0.5])
        assert inst.truth is None
        assert inst.n == 1

    def test_vectors_are_read_only(self):
        inst = AttackInstance([1, 0], [1, 0], [0, 1], [0.5, 0.5])
        with pytest.raises(ValueError):
            inst.guess[0] = 1
