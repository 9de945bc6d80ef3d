"""Exact sparse linear-system solving over an arbitrary field.

The traversal-rate equations of the decision graph (Figure 8 of the paper)
are a square linear system whose coefficients are exact rationals in the
numeric analysis and rational functions of frequency symbols in the
symbolic analysis.  Both are *fields* for which Python's arithmetic
operators work, so one elimination kernel serves Figures 5 and 8 — no
floating point, no numpy.

The systems are very sparse: a decision graph has about two edges per
anchor, so a row of ``v = v·P`` holds a handful of entries however many
anchors there are.  :func:`solve_sparse` therefore keeps every row as a
``{column: value}`` dict with a column -> rows index and eliminates in
**Markowitz order**: each step pivots on the entry minimizing
``(r - 1)(c - 1)`` (``r``/``c`` the active nonzeros of its row/column), the
bound on the fill that step can create.  The search visits columns and
rows by increasing count and stops once no unexamined entry can beat the
best one, or after :data:`MARKOWITZ_SEARCH` lines; ties go to the lowest
``(row, column)``.  One back-substitution then serves any number of
right-hand sides.

Cost is proportional to the work on nonzeros, not to ``n³``: a step that
pivots on a row with ``r`` entries in a column with ``c`` entries does about
``r·c`` field operations.  On the decision graphs of the bundled protocols
the fill stays within a small multiple of the input (a few hundred anchors
solve in milliseconds, the 5,189 anchors of the lossy window-4 sliding
window in seconds); :func:`last_solve_stats` reports the fill of the most
recent solve.  Exact rationals are canonical, so over ``Fraction`` every
pivot order yields bit-identical solutions.  Over ``RatFunc`` the solutions
are equal as rational functions, but their stored numerator and
denominator may depend on the pivot order, because RatFunc normalization
is not guaranteed to reach a canonical form (its common-factor
cancellation gives up on large operands).

Values only need ``+``, ``-``, ``*``, ``/`` and a truthiness test for "is
zero" (``Fraction`` and :class:`~repro.symbolic.ratfunc.RatFunc` both
provide them).  :func:`solve_linear_system` and
:func:`solve_stationary_weights` are thin adapters that assemble the sparse
rows from dense or callable input.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar, Union

from ..exceptions import PerformanceError

Scalar = TypeVar("Scalar")

#: Rows and columns the Markowitz pivot search examines, once it has a
#: candidate, before settling for the best one seen.
MARKOWITZ_SEARCH = 4

_SINGULAR = "the linear system is singular; no unique solution exists"


def _is_zero(value) -> bool:
    if hasattr(value, "is_zero"):
        return value.is_zero()
    return value == 0


@dataclass(frozen=True)
class EliminationStats:
    """Size and fill of one sparse elimination.

    Attributes
    ----------
    size:
        Number of unknowns.
    input_nonzeros:
        Nonzero coefficients of the system as given.
    factor_nonzeros:
        Nonzero coefficients after elimination (pivots included) — the
        entries the back-substitution reads.  ``factor_nonzeros -
        input_nonzeros`` is the net fill.
    """

    size: int
    input_nonzeros: int
    factor_nonzeros: int


_LAST = threading.local()


def last_solve_stats() -> Optional[EliminationStats]:
    """Statistics of the most recent :func:`solve_sparse` call in this thread."""
    return getattr(_LAST, "stats", None)


class _Buckets:
    """Lines (rows or columns) grouped by their active nonzero count."""

    __slots__ = ("groups", "count")

    def __init__(self, sizes: Sequence[int]):
        self.groups: Dict[int, Dict[int, None]] = {}
        self.count: List[Optional[int]] = list(sizes)
        for line, size in enumerate(sizes):
            self.groups.setdefault(size, {})[line] = None

    def move(self, line: int, size: int) -> None:
        old = self.count[line]
        if old != size:
            del self.groups[old][line]
            self.groups.setdefault(size, {})[line] = None
            self.count[line] = size

    def drop(self, line: int) -> None:
        del self.groups[self.count[line]][line]
        self.count[line] = None


def solve_sparse(
    rows: Sequence[Mapping[int, Scalar]],
    rhs_columns: Sequence[Mapping[int, Scalar]],
    *,
    zero: Scalar = Fraction(0),
) -> List[List[Scalar]]:
    """Solve ``A · x = b`` exactly for several sparse right-hand sides.

    Parameters
    ----------
    rows:
        Row ``i`` of the square matrix ``A`` as a ``{column: value}``
        mapping; absent and zero entries are zero.
    rhs_columns:
        One ``{row: value}`` mapping per right-hand side ``b``.
    zero:
        The field's additive identity; pass ``RatFunc.zero()`` for the
        symbolic field.

    Returns one dense solution vector per right-hand side, in order.

    Raises
    ------
    PerformanceError
        When the system is singular or an index lies outside the matrix.
    """
    size = len(rows)
    width = len(rhs_columns)
    work: List[Dict[int, Scalar]] = []
    col_rows: List[Optional[Dict[int, None]]] = [{} for _ in range(size)]
    for index, row in enumerate(rows):
        kept = {}
        for column, value in row.items():
            if not 0 <= column < size:
                raise PerformanceError(f"column {column} of row {index} is outside the matrix")
            if value:
                kept[column] = value
                col_rows[column][index] = None
        work.append(kept)
    rhs: List[Dict[int, Scalar]] = [{} for _ in range(size)]
    for position, column in enumerate(rhs_columns):
        for index, value in column.items():
            if not 0 <= index < size:
                raise PerformanceError(f"right-hand side row {index} is outside the matrix")
            if value:
                rhs[index][position] = value
    input_nonzeros = sum(len(row) for row in work)

    row_buckets = _Buckets([len(row) for row in work])
    col_buckets = _Buckets([len(members) for members in col_rows])
    order: List[Tuple[int, int]] = []
    for _step in range(size):
        _cost, pivot_row, pivot_col = _markowitz_pivot(work, col_rows, row_buckets, col_buckets)
        order.append((pivot_row, pivot_col))
        prow = work[pivot_row]
        pivot = prow.pop(pivot_col)
        for column in prow:
            prow[column] = prow[column] / pivot
        prhs = rhs[pivot_row]
        for position in prhs:
            prhs[position] = prhs[position] / pivot
        row_buckets.drop(pivot_row)
        col_buckets.drop(pivot_col)
        for column in prow:
            del col_rows[column][pivot_row]
        targets = col_rows[pivot_col]
        col_rows[pivot_col] = None
        del targets[pivot_row]
        pivot_items = list(prow.items())
        rhs_items = list(prhs.items())
        for target in targets:
            row = work[target]
            factor = row.pop(pivot_col)
            for column, value in pivot_items:
                old = row.get(column)
                if old is None:
                    row[column] = -(factor * value)
                    col_rows[column][target] = None
                else:
                    new = old - factor * value
                    if new:
                        row[column] = new
                    else:
                        del row[column]
                        del col_rows[column][target]
            if rhs_items:
                target_rhs = rhs[target]
                for position, value in rhs_items:
                    old = target_rhs.get(position)
                    if old is None:
                        target_rhs[position] = -(factor * value)
                    else:
                        new = old - factor * value
                        if new:
                            target_rhs[position] = new
                        else:
                            del target_rhs[position]
            row_buckets.move(target, len(row))
        for column in prow:
            col_buckets.move(column, len(col_rows[column]))

    _LAST.stats = EliminationStats(
        size=size,
        input_nonzeros=input_nonzeros,
        factor_nonzeros=sum(len(row) for row in work) + size,
    )

    solutions: List[List[Scalar]] = [[zero] * size for _ in range(width)]
    for pivot_row, pivot_col in reversed(order):
        row_items = list(work[pivot_row].items())
        prhs = rhs[pivot_row]
        for position in range(width):
            solution = solutions[position]
            value = prhs.get(position, zero)
            for column, coefficient in row_items:
                known = solution[column]
                if known:
                    value = value - coefficient * known
            solution[pivot_col] = value
    return solutions


def _markowitz_pivot(
    work: List[Dict[int, Scalar]],
    col_rows: List[Optional[Dict[int, None]]],
    row_buckets: _Buckets,
    col_buckets: _Buckets,
) -> Tuple[int, int, int]:
    """The ``(cost, row, column)`` of the next pivot (see the module docstring).

    Every active row and column holds at least one entry (an empty one
    means the system is singular), so the search always finds a candidate.
    """
    if row_buckets.groups.get(0) or col_buckets.groups.get(0):
        raise PerformanceError(_SINGULAR)
    best: Optional[Tuple[int, int, int]] = None
    searched = 0
    count = 1
    while True:
        for column in col_buckets.groups.get(count, ()):
            for row in col_rows[column]:
                candidate = ((len(work[row]) - 1) * (count - 1), row, column)
                if best is None or candidate < best:
                    best = candidate
            searched += 1
            if searched >= MARKOWITZ_SEARCH:
                break
        if searched < MARKOWITZ_SEARCH:
            for row in row_buckets.groups.get(count, ()):
                for column in work[row]:
                    candidate = ((count - 1) * (len(col_rows[column]) - 1), row, column)
                    if best is None or candidate < best:
                        best = candidate
                searched += 1
                if searched >= MARKOWITZ_SEARCH:
                    break
        # Every unexamined entry lies in a row and a column of more than
        # ``count`` entries, so costs at least count².
        if best is not None and (searched >= MARKOWITZ_SEARCH or best[0] <= count * count):
            return best
        count += 1


def solve_linear_system(
    matrix: Sequence[Sequence[Scalar]],
    rhs: Sequence[Scalar],
    *,
    zero: Scalar = Fraction(0),
    one: Scalar = Fraction(1),
) -> List[Scalar]:
    """Solve ``matrix · x = rhs`` exactly (dense adapter over :func:`solve_sparse`).

    Parameters
    ----------
    matrix:
        Square coefficient matrix (rows of equal length).
    rhs:
        Right-hand side, same length as ``matrix``.
    zero, one:
        The field's additive and multiplicative identities; pass
        ``RatFunc.zero()`` / ``RatFunc.one()`` for the symbolic field.

    Raises
    ------
    PerformanceError
        When the system is singular (the decision graph is not ergodic) or
        the dimensions are inconsistent.
    """
    size = len(matrix)
    if size == 0:
        return []
    if any(len(row) != size for row in matrix):
        raise PerformanceError("traversal-rate system matrix is not square")
    if len(rhs) != size:
        raise PerformanceError("traversal-rate system right-hand side has the wrong length")
    del one  # the identity is only needed by callers building the system
    rows = [{column: value for column, value in enumerate(row) if value} for row in matrix]
    return solve_sparse(rows, [dict(enumerate(rhs))], zero=zero)[0]


TransitionProbabilities = Union[
    Callable[[int, int], Scalar], Mapping[Tuple[int, int], Scalar]
]


def solve_stationary_weights(
    transition_probability: TransitionProbabilities,
    size: int,
    *,
    reference: int = 0,
    zero: Scalar = Fraction(0),
    one: Scalar = Fraction(1),
) -> List[Scalar]:
    """Solve ``v = v·P`` up to scale, fixing ``v[reference] = 1``.

    ``transition_probability`` gives the total probability of moving from
    node ``i`` to node ``j``: either a ``{(i, j): probability}`` mapping of
    the nonzero entries, which is assembled in time proportional to its
    size, or a callable ``transition_probability(i, j)`` (zero when there is
    no edge), which is probed for all ``size²`` pairs.  The returned weights
    are *relative visit rates*, the quantity the paper calls the rate of
    traversal once multiplied by branch probabilities.
    """
    if size == 0:
        return []
    if not 0 <= reference < size:
        raise PerformanceError(f"reference node index {reference} out of range")
    if size == 1:
        return [one]

    if callable(transition_probability):
        probe = transition_probability
        totals = {
            (source, target): probability * one
            for source in range(size)
            for target in range(size)
            if not _is_zero(probability := probe(source, target))
        }
    else:
        totals = transition_probability

    # Unknowns are the nodes other than the reference, in order.  Row
    # ``node``: v[node] - sum_j P(j, node) * v[j] = P(reference, node).
    def position(node: int) -> int:
        return node if node < reference else node - 1

    rows: List[Dict[int, Scalar]] = [{index: one} for index in range(size - 1)]
    rhs: Dict[int, Scalar] = {}
    for (source, target), probability in totals.items():
        if target == reference:
            continue
        row = position(target)
        if source == reference:
            rhs[row] = rhs.get(row, zero) + probability
        else:
            column = position(source)
            rows[row][column] = rows[row].get(column, zero) - probability

    solution = solve_sparse(rows, [rhs], zero=zero)[0]
    return solution[:reference] + [one] + solution[reference:]
