"""Spans closed under the bracket, and the generating set S of the
certificates.

:func:`close_span` is the one worklist that closes a span under the
bracket: :func:`~superlie.algebras.subalgebra_closure` and the walk of
:func:`generating_set` both run it.

The certificates of :mod:`~superlie.algebras` need only that S generates L,
so the walk picks S to be small.  It is lazy and greedy: the score of a
candidate e_i counts the partners j of its bracket-index row whose bracket
[e_i, e_j] has support outside ``covered`` and {i, j}, where ``covered``
is the set of pivots of the single-entry rows of the span, the basis
elements the span already holds.  ``Echelon.insert`` never rewrites a
stored row, so ``covered`` only grows and scores only fall: a score in the
heap bounds the fresh one from above.  A popped candidate is re-scored
and taken only when (fresh score, index) still sorts first; otherwise it
goes back into the heap.  A candidate already in the span is skipped, and
the span is closed after each pick.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .linalg import Echelon


def close_span(L, acc: Echelon, spanned: list[dict], work: list[dict]) -> None:
    """Close the span of ``acc`` under the bracket of L, where ``spanned``
    and ``work`` together span it and every pair in ``spanned`` has been
    bracketed.  Each vector of the worklist is bracketed once with itself
    and with each vector of ``spanned``, then joins it, and each bracket
    that grows the span joins the worklist; when the worklist is empty the
    span is closed, by bilinearity.  It returns as soon as the span is the
    whole space, which is closed."""
    while work:
        v = work.pop()
        spanned.append(v)
        for u in spanned:
            w = L.bracket(u, v)
            if w and acc.insert(w):
                if acc.rank == L.dim:
                    return
                work.append(w)


def _score(row: dict[int, dict], i: int, covered: set[int]) -> int:
    """The partners j of row i whose bracket [e_i, e_j] has support outside
    ``covered`` and {i, j}."""
    score = 0
    for j, b in row.items():
        for k in b:
            if k not in covered and k != i and k != j:
                score += 1
                break
    return score


def _picks(L, acc: Echelon):
    """Yield the picks of the lazy greedy walk of the module docstring
    while the span of ``acc`` is not the whole space; the caller inserts
    each pick and closes the span before the walk resumes."""
    index = L.bracket_index()
    covered: set[int] = set()
    heap = [(-_score(row, i, covered), i) for i, row in enumerate(index)]
    heapify(heap)
    while heap and acc.rank < L.dim:
        _, i = heappop(heap)
        if i in covered or acc.contains({i: 1}):
            continue
        key = (-_score(index[i], i, covered), i)
        if heap and heap[0] < key:
            heappush(heap, key)
            continue
        yield i
        covered = {p for p, row in acc.rows.items() if len(row) == 1}


def generating_set(L) -> list[int]:
    """The indices, ascending, of a set S of basis elements that generates
    L.  The walk only proposes the members; S is exactly the picks whose
    span is closed here by :func:`close_span`, and that it is all of L is
    asserted, so no choice of the walk can make S fail to generate."""
    acc, spanned, gens = Echelon(L.field, L.dim), [], []
    for i in _picks(L, acc):
        gens.append(i)
        acc.insert({i: 1})
        close_span(L, acc, spanned, [{i: 1}])
    if acc.rank != L.dim:
        raise RuntimeError("the generating set does not generate the algebra")
    return sorted(gens)
