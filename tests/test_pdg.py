"""Graph container, explanation checks, weighting, and canonical serialization."""

from __future__ import annotations

import json
import math
import sys

import pytest

from trustvet.errors import (
    IdentityMismatchError,
    MalformedExplanationError,
    SchemaError,
)
from trustvet.pdg import (
    DepKind,
    Explanation,
    Pdg,
    PdgEdge,
    build_weighted_pdg,
    check_schema_version,
    dumps_canonical,
    json_number,
    pdg_dumps,
)


def tiny_pdg():
    return Pdg.build(
        "f",
        [1, 2, 3],
        [
            PdgEdge(1, 2, DepKind.DATA, "x"),
            PdgEdge(2, 3, DepKind.CONTROL),
        ],
        {1: "a = x ;", 2: "if ( a ) {", 3: "use ( a ) ;"},
        {1: {"a", "x"}, 2: {"a"}, 3: {"a"}},
    )


class TestExplanationValidation:
    def test_duplicate_lines_rejected(self):
        with pytest.raises(MalformedExplanationError):
            Explanation("f", 0.5, ((1, 0.2), (1, 0.3)))

    def test_boolean_line_rejected(self):
        with pytest.raises(MalformedExplanationError):
            Explanation("f", 0.5, ((True, 0.5),))

    def test_negative_score_rejected(self):
        with pytest.raises(MalformedExplanationError):
            Explanation("f", 0.5, ((1, -0.1),))

    def test_non_finite_score_rejected(self):
        with pytest.raises(MalformedExplanationError):
            Explanation("f", 0.5, ((1, math.nan),))

    def test_confidence_range(self):
        with pytest.raises(MalformedExplanationError):
            Explanation("f", 1.5, ((1, 0.2),))

    # an int beyond the float range, past the limit of int to str too, and
    # values that math.isfinite cannot read
    NOT_FINITE_NUMBERS = [10**400, -(10**5000), "0.5", None, 1j]
    NOT_FINITE_IDS = ["int-beyond-float", "int-beyond-str", "str", "none", "complex"]

    @pytest.mark.parametrize("score", NOT_FINITE_NUMBERS, ids=NOT_FINITE_IDS)
    def test_score_that_is_no_finite_number_names_its_line(self, score):
        with pytest.raises(MalformedExplanationError, match=r"^f: score .* at line 2 is not finite and non-negative$"):
            Explanation("f", 0.5, ((1, 0.1), (2, score)))

    @pytest.mark.parametrize("confidence", NOT_FINITE_NUMBERS, ids=NOT_FINITE_IDS)
    def test_confidence_that_is_no_finite_number_rejected(self, confidence):
        with pytest.raises(MalformedExplanationError, match=r"^f: confidence .* outside \[0, 1\]$"):
            Explanation("f", confidence, ((1, 0.1),))

    def test_an_int_beyond_the_float_range_is_shown_by_its_size(self):
        with pytest.raises(MalformedExplanationError, match=r"^f: score <int of 1329 bits> at line 1 "):
            Explanation("f", 0.5, ((1, 10**400),))

    def test_scores_whose_sum_overflows_rejected(self, vrrp_fixture):
        """build_weighted_pdg divides by the scores' sum: an inf sum would
        weigh every line 0.0. Two scores that sum to the largest float are
        accepted, and their weights sum to 1."""
        with pytest.raises(MalformedExplanationError, match="^f: the scores sum beyond the float range$"):
            Explanation("f", 0.5, ((3, 1e308), (4, 1e308)))
        half = sys.float_info.max / 2
        expl = Explanation(vrrp_fixture.function_id, 0.5, ((3, half), (4, half)))
        assert build_weighted_pdg(vrrp_fixture, expl).weights == {3: 0.5, 4: 0.5}


class TestWeighting:
    def test_normalized_weights_sum_to_one(self, vrrp_fixture, vrrp_explanation):
        g = build_weighted_pdg(vrrp_fixture, vrrp_explanation, normalize=True)
        assert math.isclose(sum(g.weights.values()), 1.0, rel_tol=0, abs_tol=1e-12)

    def test_raw_weights_kept_without_normalization(self, vrrp_fixture, vrrp_explanation):
        g = build_weighted_pdg(vrrp_fixture, vrrp_explanation, normalize=False)
        assert g.weights[5] == 0.27
        assert not g.normalized

    def test_non_resident_lines_dropped_in_order(self, vrrp_fixture, vrrp_explanation):
        g = build_weighted_pdg(vrrp_fixture, vrrp_explanation)
        assert g.dropped == (2,)
        assert 2 not in g.weights

    def test_identity_mismatch(self, vrrp_fixture):
        expl = Explanation("other_function", 0.5, ((1, 0.3),))
        with pytest.raises(IdentityMismatchError):
            build_weighted_pdg(vrrp_fixture, expl)

    def test_all_zero_scores_stay_zero(self):
        expl = Explanation("f", 0.5, ((1, 0.0), (2, 0.0)))
        g = build_weighted_pdg(tiny_pdg(), expl, normalize=True)
        assert all(w == 0.0 for w in g.weights.values())


class TestSerialization:
    def test_dumps_is_stable(self, vrrp_fixture):
        """Canonical bytes do not depend on the order edges and text were
        given in."""
        shuffled = Pdg.build(
            vrrp_fixture.function_id,
            sorted(vrrp_fixture.nodes, reverse=True),
            reversed(vrrp_fixture.edges),
            dict(reversed(vrrp_fixture.line_text.items())),
            dict(reversed(vrrp_fixture.line_vars.items())),
        )
        text = pdg_dumps(shuffled)
        assert text == pdg_dumps(vrrp_fixture)
        document = json.loads(text)
        assert [node["line"] for node in document["nodes"]] == sorted(vrrp_fixture.nodes)
        assert [(e["src"], e["dst"]) for e in document["edges"]] == [
            (1, 3), (3, 4), (3, 5), (3, 7), (7, 8), (8, 9)
        ]

    def test_canonical_form_ends_with_newline(self):
        assert dumps_canonical({"b": 1, "a": 2}).endswith("\n")

    def test_canonical_key_order(self):
        assert dumps_canonical({"b": 1, "a": 2}).index('"a"') < dumps_canonical(
            {"b": 1, "a": 2}
        ).index('"b"')

    def test_minor_version_accepted(self):
        check_schema_version({"schema_version": "1.9.9"}, "doc")

    def test_major_version_rejected(self):
        with pytest.raises(SchemaError):
            check_schema_version({"schema_version": "2.0.0"}, "doc")

    def test_integer_beyond_the_float_range_rejected(self):
        with pytest.raises(SchemaError) as err:
            json_number(10**400, "score")
        assert str(err.value) == f"score {10**400} is out of range"

    def test_missing_version_rejected(self):
        with pytest.raises(SchemaError):
            check_schema_version({}, "doc")
