import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from axsim import (
    ExperimentConfig,
    InvalidInput,
    PoleError,
    binom_pj,
    psi_mean_field,
    rounds_expectations,
    execute,
    table1_generate,
    theorem2_bound,
)
from axsim.bounds import TABLE_FS, TABLE_QS, _bound_fraction


class TestTheorem2Bound:
    def test_spot_values(self):
        b = theorem2_bound(2, 4)
        assert b.lower_bound_density == pytest.approx(0.375, abs=1e-12)
        assert b.domain_length_upper == pytest.approx(2.6667, abs=5e-4)

    def test_negative_bound(self):
        b = theorem2_bound(3, 4)
        assert b.lower_bound_density < 0
        assert b.domain_length_upper is None

    def test_pole(self):
        with pytest.raises(PoleError):
            theorem2_bound(4, 4)

    @pytest.mark.parametrize("F,q,message", [
        (2.5, 4, "F must be an integer, got 2.5"),
        (2.0, 4, "F must be an integer, got 2.0"),
        (2, 4.5, "q must be an integer, got 4.5")])
    def test_non_integers_refused(self, F, q, message):
        for call in (lambda: theorem2_bound(F, q),
                     lambda: execute(ExperimentConfig(kind="bounds", F=F, q=q))):
            with pytest.raises(InvalidInput) as exc:
                call()
            assert str(exc.value) == message

    @pytest.mark.parametrize("F,q,message", [
        (0, 4, "need F >= 1 and q >= 2"), (2, 1, "need F >= 1 and q >= 2"),
        (4, 4, "bound undefined at F = q")])
    def test_other_refusals_keep_their_messages(self, F, q, message):
        with pytest.raises(InvalidInput) as exc:
            execute(ExperimentConfig(kind="bounds", F=F, q=q))
        assert str(exc.value) == message

    def test_out_of_hypothesis_flagged(self):
        b = theorem2_bound(5, 3)
        assert not b.in_hypothesis

    def test_sensitive_cell_exact_arithmetic(self):
        # near-cancelling cell; pin against exact rationals
        b = _bound_fraction(7, 12)
        assert b == Fraction(327107, 14929920)
        assert theorem2_bound(7, 12).domain_length_upper == pytest.approx(
            float(1 / b), abs=1e-12)


class TestBinomPj:
    def test_examples(self):
        assert binom_pj(2, 2, 1) == pytest.approx(0.5)
        assert binom_pj(2, 4, 0) == pytest.approx(0.5625)

    def test_out_of_range(self):
        with pytest.raises(InvalidInput):
            binom_pj(2, 4, 3)

    @given(st.integers(1, 8), st.integers(2, 12))
    def test_normalized(self, F, q):
        assert sum(binom_pj(F, q, j) for j in range(F + 1)) == pytest.approx(1.0)

    def test_matches_exhaustive_enumeration(self):
        # agreement count of two uniform cultures, enumerated exactly
        F, q = 3, 3
        counts = [0] * (F + 1)
        for a in product(range(q), repeat=F):
            for b in product(range(q), repeat=F):
                counts[sum(x == y for x, y in zip(a, b))] += 1
        total = q ** (2 * F)
        for j in range(F + 1):
            assert binom_pj(F, q, j) == pytest.approx(counts[j] / total)


class TestRoundsExpectations:
    def test_requires_f_below_q(self):
        with pytest.raises(InvalidInput):
            rounds_expectations(4, 2, 2)

    def test_e_t1_value(self):
        assert rounds_expectations(4, 2, 4).E_T1 == pytest.approx(1.5)

    def test_series_is_geometric(self):
        r = rounds_expectations(100, 3, 8, n_terms=6)
        for a, b in zip(r.E_B1_series, r.E_B1_series[1:]):
            assert b == pytest.approx(a * 2 / 7)

    def test_limit_equals_theorem2_identically(self):
        """Two derivations of one number: the rounds-urn chain's limit, summed
        in exact fractions, and Theorem 2's closed form."""
        for F in TABLE_FS:
            for q in TABLE_QS:
                if F >= q:
                    continue
                assert rounds_expectations(10, F, q).closed_form_limit == \
                    theorem2_bound(F, q).lower_bound_density


class TestPsi:
    def test_endpoint_values(self):
        assert psi_mean_field(0.0) == pytest.approx(0.0, abs=1e-12)
        assert psi_mean_field(0.5) == pytest.approx(0.375, abs=1e-12)
        assert psi_mean_field(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(InvalidInput):
            psi_mean_field(1.1)

    def test_strictly_increasing_on_grid(self):
        grid = [k / 200 for k in range(201)]
        vals = [psi_mean_field(t) for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestTable1:
    def test_shape_and_markers(self):
        table = table1_generate()
        assert table.fs == tuple(range(2, 10))
        assert table.qs == tuple(range(4, 37, 4))
        assert table.value(4, 4) == "—"
        assert table.value(5, 8) == "neg."
        assert table.value(2, 8) == "1.3714"

    def test_marker_placement_rules(self):
        table = table1_generate()
        for F in table.fs:
            for q in table.qs:
                cell = table.value(F, q)
                if F >= q:
                    assert cell == "—"
                elif cell == "neg.":
                    assert _bound_fraction(F, q) <= 0
                else:
                    assert _bound_fraction(F, q) > 0

    def test_csv_stable(self):
        assert table1_generate().render_csv() == table1_generate().render_csv()
