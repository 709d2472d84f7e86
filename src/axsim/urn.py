"""Ball-in-boxes processes bounding the number of fully-disagreeing edges.

Two processes share the UrnState value: the urn stepped alongside a live
culture trajectory (one step per update, driven by the update's change in
total agreement), and the standalone discrete "rounds" urn whose closed-form
expectation yields the analytic lower bound. The rounds urn is a bounding
process, not equal in law to the coupled one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import CapacityError, InvalidInput, ModelParams, as_generator

EXACT_BALL_CAP = 12
EXACT_F_CAP = 4


@dataclass(frozen=True)
class UrnState:
    boxes: tuple  # B_0,...,B_F

    def __post_init__(self):
        if any(b < 0 for b in self.boxes):
            raise InvalidInput("negative ball count")

    @property
    def total(self) -> int:
        return sum(self.boxes)


@dataclass(frozen=True)
class RoundsRecord:
    round_end_steps: tuple  # T_1, T_2, ...
    box1_counts: tuple  # ball count of box 1 at each T_k
    final: UrnState


def urn_init(census) -> UrnState:
    """Start with as many balls in box j as there are j-edges."""
    return UrnState(tuple(census.counts))


def urn_coupled_step(urn: UrnState, delta_w: int, rng) -> UrnState:
    """One coupled step: act only on agreement jumps of 2.

    Then a ball moves up from a uniformly chosen nonempty inner box, and if
    one did, a ball moves from box 0 to box 1 if available.
    """
    if delta_w not in (0, 1, 2):
        raise InvalidInput(f"delta_w {delta_w} outside {{0,1,2}}")
    if delta_w <= 1:
        return urn
    boxes = list(urn.boxes)
    F = len(boxes) - 1
    inner = [j for j in range(1, F) if boxes[j] > 0]
    if not inner:
        return urn
    j = inner[int(rng.integers(len(inner)))]
    boxes[j] -= 1
    boxes[j + 1] += 1
    if boxes[0] > 0:
        boxes[0] -= 1
        boxes[1] += 1
    return UrnState(tuple(boxes))


def urn_potentials(urn: UrnState, census) -> tuple[int, int]:
    """Remaining-step potentials: beta over balls, epsilon over edges."""
    F = len(urn.boxes) - 1
    if len(census.counts) != F + 1:
        raise InvalidInput("urn and census disagree on F")
    beta = sum((F - j) * urn.boxes[j] for j in range(1, F + 1))
    eps = sum((F - j) * census.counts[j] for j in range(1, F + 1))
    return beta, eps


def _round_eligible(whites, F):
    return [j for j in range(1, F) if whites[j] > 0]


def urn_rounds_run(initial: UrnState, params: ModelParams, seed) -> RoundsRecord:
    """Discrete rounds game; halts when all balls sit in box 0 or box F.

    Round 1 paints box-0 balls black and the rest white; each step moves a
    white ball up from a uniformly chosen white-holding box below F, then
    with probability 1/(q-1) a ball moves from box 0 to box 1. A round ends
    when every white ball is in box F; the next round repaints box 1 white.
    `seed` is an integer >= 0 or a Generator, which the game advances.
    """
    F = params.F
    if len(initial.boxes) != F + 1:
        raise InvalidInput("urn state does not match F")
    rng = as_generator(seed)
    p_move = 1.0 / (params.q - 1)

    black0 = initial.boxes[0]
    black1 = 0
    whites = [0] + list(initial.boxes[1:])
    steps = 0
    round_ends = []
    box1_at_end = []

    while True:
        eligible = _round_eligible(whites, F)
        if not eligible:
            round_ends.append(steps)
            box1_at_end.append(black1 + whites[1])  # whites[1] is 0 here
            if black1 == 0:
                break
            whites[1] = black1  # repaint
            black1 = 0
            continue
        j = eligible[int(rng.integers(len(eligible)))]
        whites[j] -= 1
        whites[j + 1] += 1
        if rng.random() < p_move and black0 > 0:
            black0 -= 1
            black1 += 1
        steps += 1

    final = [0] * (F + 1)
    final[0] = black0
    final[F] = whites[F]
    return RoundsRecord(tuple(round_ends), tuple(box1_at_end), UrnState(tuple(final)))


def _rounds_moves(state, F: int, p: Fraction):
    """(probability, next state) of each move of the rounds game; () once it halts."""
    whites, black0, black1 = state
    eligible = _round_eligible(whites, F)
    if not eligible:
        if black1 == 0:
            return ()
        return ((Fraction(1), ((0, black1) + whites[2:], black0, 0)),)  # repaint
    share = Fraction(1, len(eligible))
    moves = []
    for j in eligible:
        w2 = list(whites)
        w2[j] -= 1
        w2[j + 1] += 1
        w2 = tuple(w2)
        if black0 > 0:
            moves.append((share * p, (w2, black0 - 1, black1 + 1)))
            moves.append((share * (1 - p), (w2, black0, black1)))
        else:
            moves.append((share, (w2, black0, black1)))
    return moves


def urn_exact_expectation(initial: UrnState, params: ModelParams) -> Fraction:
    """Exact E(final box-0 count) of the rounds game by exhaustive expansion.

    States (whites, black0, black1) form an acyclic graph; an explicit stack
    values each state after all its successors, so no recursion is needed.
    """
    F = params.F
    if len(initial.boxes) != F + 1:
        raise InvalidInput("urn state does not match F")
    if initial.total > EXACT_BALL_CAP or F > EXACT_F_CAP:
        raise CapacityError(
            f"exact expansion capped at {EXACT_BALL_CAP} balls / F <= {EXACT_F_CAP}")
    p = Fraction(1, params.q - 1)
    root = ((0,) + tuple(initial.boxes[1:]), initial.boxes[0], 0)
    value: dict = {}
    stack = [root]
    while stack:
        state = stack[-1]
        if state in value:
            stack.pop()
            continue
        moves = _rounds_moves(state, F, p)
        pending = [nxt for _, nxt in moves if nxt not in value]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if moves:
            value[state] = sum((w * value[nxt] for w, nxt in moves), Fraction(0))
        else:
            value[state] = Fraction(state[1])
    return value[root]
