"""Unit tests for the GenASM pre-alignment filter."""

import random

import pytest

from repro.core.prefilter import GenAsmFilter
from repro.engine import available_engines, get_engine
from repro.sequences.mutate import MutationProfile, mutate
from tests.conftest import random_dna


class TestDecisions:
    def test_identical_pair_accepted(self):
        decision = GenAsmFilter(0).decide("ACGTACGT", "ACGTACGT")
        assert decision.accepted
        assert decision.distance == 0

    def test_dissimilar_pair_rejected(self):
        decision = GenAsmFilter(2).decide("AAAAAAAA", "TTTTTTTT")
        assert not decision.accepted
        assert decision.distance is None

    def test_boundary_distance_accepted(self):
        # Exactly threshold edits must pass.
        decision = GenAsmFilter(1).decide("ACGTACGT", "ACCTACGT")
        assert decision.accepted
        assert decision.distance == 1

    def test_empty_read_accepted(self):
        assert GenAsmFilter(5).decide("ACGT", "").accepted

    def test_empty_reference_rejected(self):
        assert not GenAsmFilter(5).decide("", "ACGT").accepted

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            GenAsmFilter(-1)


class TestFilterProperties:
    def test_zero_false_reject_on_mutated_pairs(self, rng):
        """Pairs with <= threshold injected edits must always pass (the
        paper's 0% false reject claim)."""
        threshold = 5
        filt = GenAsmFilter(threshold)
        for _ in range(40):
            reference = random_dna(100, rng)
            result = mutate(reference, MutationProfile(0.02), rng=rng)
            if result.edit_count <= threshold:
                assert filt.accepts(reference, result.sequence)

    def test_distance_never_exceeds_global(self, rng):
        """The filter's semi-global distance is at most the global edit
        distance for typical (region >= read) filtering inputs."""
        from repro.baselines.needleman_wunsch import edit_distance_dp

        filt = GenAsmFilter(30)
        for _ in range(25):
            read = random_dna(rng.randint(10, 40), rng)
            region = random_dna(5, rng) + read + random_dna(5, rng)
            decision = filt.decide(region, read)
            assert decision.accepted
            assert decision.distance <= edit_distance_dp(region, read)

    def test_filter_pairs_batch(self, rng):
        filt = GenAsmFilter(3)
        pairs = []
        for _ in range(10):
            ref = random_dna(50, rng)
            pairs.append((ref, ref))
        decisions = filt.decide_batch(pairs)
        assert all(d.accepted and d.distance == 0 for d in decisions)



@pytest.mark.parametrize("name", available_engines())
@pytest.mark.parametrize("threshold", [0, 1, 3, 10])
def test_accepts_batch_equals_a_first_match_scan(name, threshold):
    """A location within the threshold exists exactly when the smallest
    distance is within it, so the filter's verdicts (from
    ``edit_distance_batch``) equal a first-match scan's on every backend."""
    rng = random.Random(threshold)
    pairs = [("A", "AC"), ("AC", "A"), ("ACGT", "ACGT"), ("NNNN", "ACG")]
    for _ in range(40):
        read = random_dna(rng.randint(1, 130), rng)
        edited = mutate(read, MutationProfile(0.06), rng=rng).sequence
        flank = random_dna(rng.randint(0, 24), rng)
        pairs.append((flank[:12] + edited + flank[12:], read))
    engine = get_engine(name)
    assert GenAsmFilter(threshold, engine=engine).accepts_batch(pairs) == [
        bool(matches)
        for matches in engine.scan_batch(pairs, threshold, first_match_only=True)
    ]


@pytest.mark.skipif(
    "native" not in available_engines(), reason="repro.core._native is not built"
)
def test_native_filter_asks_for_distances_not_scans(monkeypatch):
    """One scan path: the early-terminating ``edit_distance_many`` sweep."""
    pairs = [("TTACGTACGTT", "ACGTACGA"), ("GGGG", "ACGT"), ("", "A"), ("A", "")]
    expected = GenAsmFilter(2, engine="pure").decide_batch(pairs)

    def scan(*args, **kwargs):
        raise AssertionError("the filter ran a scan")

    engine = get_engine("native")
    monkeypatch.setattr(engine, "scan_batch", scan)
    filt = GenAsmFilter(2, engine=engine)
    assert filt.decide_batch(pairs) == expected
    assert filt.accepts_batch(pairs) == [d.accepted for d in expected]
