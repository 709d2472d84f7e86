"""Closed-form bounds and reference-table generation.

`theorem2_bound` is the per-edge lower bound on the limiting density of
cultural domains on a path; its reciprocal upper-bounds the expected domain
length, tabulated over the standard (F, q) grid. The rounds-urn expectation
chain evaluates to the same limit algebraically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import InvalidInput, check_int


class PoleError(InvalidInput):
    """The bound has a pole at F = q."""


TABLE_FS = tuple(range(2, 10))
TABLE_QS = tuple(range(4, 37, 4))


@dataclass(frozen=True)
class BoundResult:
    F: int
    q: int
    lower_bound_density: float
    domain_length_upper: float | None  # None when the bound is <= 0
    in_hypothesis: bool  # F < q


def _bound_fraction(F: int, q: int) -> Fraction:
    p0 = Fraction(q - 1, q) ** F
    return p0 + Fraction(F, q - F) * (p0 - Fraction(q - 1, q))


def theorem2_bound(F: int, q: int) -> BoundResult:
    """Lower bound on lim E(N_t)/N for the F-feature q-state path dynamics."""
    check_int("F", F)
    check_int("q", q)
    if F < 1 or q < 2:
        raise InvalidInput("need F >= 1 and q >= 2")
    if F == q:
        raise PoleError("bound undefined at F = q")
    b = _bound_fraction(F, q)
    lo = float(b)
    upper = float(1 / b) if b > 0 else None
    return BoundResult(F, q, lo, upper, in_hypothesis=F < q)


def binom_pj(F: int, q: int, j: int) -> float:
    """P(Bin(F, 1/q) = j): initial law of a single edge's weight."""
    if not 0 <= j <= F:
        raise InvalidInput(f"j={j} outside 0..{F}")
    return math.comb(F, j) * (1 / q) ** j * (1 - 1 / q) ** (F - j)


@dataclass(frozen=True)
class RoundsExpectations:
    E_T1: float
    E_B1_series: tuple  # E(box-1 count at round ends T_1, T_2, ...)
    closed_form_limit: float  # p0 minus the whole series over N: theorem2_bound(F, q)


def rounds_expectations(N: int, F: int, q: int, n_terms: int = 10) -> RoundsExpectations:
    """Expectation chain of the rounds urn started from the edge-weight law.

    The limit is derived from the chain itself, in exact fractions: the
    initial box-0 share p0, less the sum over every round of the geometric
    box-1 series, per edge. It equals `theorem2_bound`'s value, which that
    derives from the bound's closed form."""
    if F >= q:
        raise InvalidInput("rounds expectations require F < q")
    p0 = (1 - 1 / q) ** F
    e_t1 = N * F * (1 - p0 - 1 / q)
    ratio = (F - 1) / (q - 1)
    first = N * (F / (q - 1)) * (1 - p0 - 1 / q)
    series = tuple(first * ratio ** k for k in range(n_terms))
    exact_p0 = Fraction(q - 1, q) ** F
    first_per_edge = Fraction(F, q - 1) * (1 - exact_p0 - Fraction(1, q))
    limit = float(exact_p0 - first_per_edge / (1 - Fraction(F - 1, q - 1)))
    return RoundsExpectations(e_t1, series, limit)


def psi_mean_field(theta: float) -> float:
    """Mean-field domain-length scaling exponent as a function of the
    initial centrist density."""
    if not 0.0 <= theta <= 1.0:
        raise InvalidInput("theta must lie in [0,1]")
    return -1 / 8 + (2 / math.pi ** 2) * math.acos((1 - 2 * theta) / math.sqrt(2)) ** 2


@dataclass(frozen=True)
class Table1:
    fs: tuple
    qs: tuple
    cells: tuple  # rows over fs; each a tuple of strings

    def value(self, F: int, q: int) -> str:
        return self.cells[self.fs.index(F)][self.qs.index(q)]

    def render_text(self) -> str:
        header = ["F\\q"] + [str(q) for q in self.qs]
        rows = [header] + [
            [f"F={F}"] + list(row) for F, row in zip(self.fs, self.cells)
        ]
        widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
        return "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in rows
        )

    def render_csv(self) -> str:
        lines = ["F," + ",".join(str(q) for q in self.qs)]
        for F, row in zip(self.fs, self.cells):
            lines.append(f"{F}," + ",".join(row))
        return "\n".join(lines) + "\n"


def table1_cell(F: int, q: int) -> str:
    if F >= q:
        return "—"
    upper = theorem2_bound(F, q).domain_length_upper
    return "neg." if upper is None else f"{upper:.4f}"


def table1_generate() -> Table1:
    """Domain-length upper bounds over F in 2..9, q in 4,8,...,36."""
    cells = tuple(tuple(table1_cell(F, q) for q in TABLE_QS) for F in TABLE_FS)
    return Table1(TABLE_FS, TABLE_QS, cells)
