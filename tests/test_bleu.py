"""Line-similarity score against an independent reference implementation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_bleu
from trustvet.errors import UndefinedInputError
from trustvet.frontend.lexer import normalize_line, tokenize_line
from trustvet.lineassess.bleu import BleuReferences, bleu

TOKENS = ["x", "y", "z", "=", "+", "(", ")", ";", "if", "0", "1"]


def random_seq(rng, lo=1, hi=12):
    return [rng.choice(TOKENS) for _ in range(rng.randint(lo, hi))]


class TestKnownValues:
    def test_frozen_half(self):
        got = bleu(["a", "b", "c", "d"], BleuReferences([["a", "b", "x", "d"]], 2))
        assert got == pytest.approx(0.5, abs=1e-6)

    def test_identity_is_exactly_one(self):
        seq = ["if", "(", "x", ")", "{"]
        assert bleu(seq, BleuReferences([seq])) == 1.0

    def test_disjoint_is_negligible(self):
        assert bleu(["a", "b"], BleuReferences([["c", "d"]])) <= 1e-6

    def test_no_references(self):
        assert bleu(["a"], BleuReferences([])) == 0.0

    def test_empty_candidate_rejected(self):
        with pytest.raises(UndefinedInputError):
            bleu([], BleuReferences([["a"]]))

    def test_short_candidate_skips_empty_orders(self):
        # a one-token candidate has no 2-grams; order 1 alone decides
        assert bleu(["a"], BleuReferences([["a"]])) == pytest.approx(1.0, abs=1e-9)

    def test_brevity_penalty_punishes_short_candidates(self):
        full = ["a", "b", "c", "d"]
        table = BleuReferences([full])
        assert bleu(["a", "b"], table) < bleu(full, table)

    def test_closest_reference_length_breaks_toward_shorter(self):
        # candidate length 3: references of lengths 2 and 4 tie; 2 wins,
        # so the candidate is not short and there is no penalty
        got = bleu(["a", "b", "c"], BleuReferences([["a", "b"], ["a", "b", "c", "d"]]))
        oracle = oracle_bleu(["a", "b", "c"], [["a", "b"], ["a", "b", "c", "d"]])
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_strings_and_tokens_agree(self):
        """A normal form split at single spaces is its token texts."""
        tokens = [t.text for t in tokenize_line("x=y;")]
        assert bleu(normalize_line("x=y;").split(" "), BleuReferences([tokens])) == 1.0


class TestAgainstOracle:
    def test_random_cases(self):
        rng = random.Random(20240817)
        for _ in range(300):
            candidate = random_seq(rng)
            references = [random_seq(rng) for _ in range(rng.randint(1, 3))]
            got = bleu(candidate, BleuReferences(references))
            want = oracle_bleu(candidate, references)
            assert got == pytest.approx(want, abs=1e-9), (candidate, references)

    @given(
        st.lists(st.sampled_from(TOKENS), min_size=1, max_size=10),
        st.lists(
            st.lists(st.sampled_from(TOKENS), min_size=1, max_size=10),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_bounded(self, candidate, references):
        value = bleu(candidate, BleuReferences(references))
        assert 0.0 <= value <= 1.0 + 1e-12


class TestReferenceTable:
    """One table scores every candidate exactly as a fresh computation."""

    @pytest.mark.parametrize("max_order", [1, 2, 3, 4, 5])
    def test_reuse_equals_one_shot(self, max_order):
        rng = random.Random(1000 + max_order)
        for _ in range(20):
            references = [random_seq(rng, 3, 9) for _ in range(rng.randint(1, 6))]
            table = BleuReferences(references, max_order)
            lengths = sorted({len(r) for r in references})
            candidates = [random_seq(rng, 1, 14) for _ in range(30)]
            candidates += [random_seq(rng, 1, lengths[0] - 1)]  # shorter than every reference
            candidates += [random_seq(rng, lengths[-1] + 1, lengths[-1] + 4)]  # longer than all
            # equal distance to two reference lengths
            for lo, hi in zip(lengths, lengths[1:]):
                if (hi - lo) % 2 == 0:
                    candidates.append(random_seq(rng, (lo + hi) // 2, (lo + hi) // 2))
            for candidate in candidates:
                got = bleu(candidate, table)
                assert got == oracle_bleu(candidate, references, max_order), (candidate, references)

    def test_equal_distance_tie_takes_the_shorter_length(self):
        # lengths 2 and 4 are both 1 away from 3; a penalty would mean 4 won
        references = [["a", "b"], ["a", "b", "c", "d"], ["q"] * 9]
        table = BleuReferences(references, 2)
        assert table.closest_length(3) == 2
        assert bleu(["a", "b", "c"], table) == oracle_bleu(["a", "b", "c"], references, 2)

    def test_closest_length_at_the_ends_and_on_a_hit(self):
        table = BleuReferences([["a"] * 3, ["a"] * 6, ["a"] * 6], 1)
        assert table.lengths == [3, 6]
        assert [table.closest_length(c) for c in (1, 3, 4, 5, 6, 20)] == [3, 3, 3, 6, 6, 6]

    def test_clipping_bound_is_the_highest_count_in_one_reference(self):
        # "a" twice in each reference: the bound is 2, not the sum 4
        table = BleuReferences([["a", "a", "b"], ["a", "a", "c"]], 2)
        assert table.best[0][("a",)] == 2
        assert table.best[1] == {("a", "a"): 1, ("a", "b"): 1, ("a", "c"): 1}

    def test_order_beyond_every_reference_is_free(self):
        """Tables stop at the longest reference, so an order of 10**5 builds
        at once and scores as the candidate's own length does."""
        rng = random.Random(77)
        references = [random_seq(rng, 4, 4) for _ in range(50)]
        huge = BleuReferences(references, 10**5)
        assert len(huge.best) == 4
        for candidate in (random_seq(rng, 1, 3), references[0], random_seq(rng, 5, 30)):
            c = len(candidate)
            got = bleu(candidate, huge)
            assert got == bleu(candidate, BleuReferences(references, c)), candidate
            assert got == oracle_bleu(candidate, references, c), candidate

    def test_empty_table_scores_zero(self):
        assert bleu(["a"], BleuReferences([], 4)) == 0.0

    def test_order_below_one_rejected(self):
        with pytest.raises(UndefinedInputError):
            BleuReferences([["a"]], 0)
