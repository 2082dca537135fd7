"""Non-dominated sorting and crowding-distance truncation.

Objective 0 (accuracy) is maximized and internally negated so that domination
is uniformly "weakly better in all objectives, strictly better in one" under
minimization.

Fronts are found by sort-and-sweep, for one or two objectives (Kung, Luccio &
Preparata, JACM 22(4), 1975; Jensen, IEEE TEVC 7(5), 2003). Members are taken
in lexicographic order of their objective vectors, so every member that can
dominate one comes before it. The last vector added to a front has that
front's smallest second objective, and the front dominates the member exactly
when that vector has second objective <= the member's and differs from it.
Equal vectors therefore share a front. Domination by a front is monotone in
the front's rank, so a binary search over the fronts built so far finds the
member's front: O(N log N) for N members, against O(N^2) for pairwise
comparison. One objective is swept with a constant second objective.
"""

from __future__ import annotations

from ..errors import ConfigError, EvaluationOrderError
from .individual import Individual, Population

_INF = float("inf")


def _objective_vector(m: Individual, n_obj: int) -> tuple[float, ...]:
    if m.fitness is None or len(m.fitness) < n_obj:
        raise EvaluationOrderError(f"{m.name} lacks the full {n_obj}-objective vector")
    return (-m.fitness[0],) + tuple(m.fitness[1:n_obj])


def nondominated_sort(members: list[Individual], n_obj: int = 2) -> list[list[Individual]]:
    """Partition ``members`` into fronts F1, F2, ... of decreasing quality.

    Each front lists its members in input order. Only one or two objectives
    are supported; any other ``n_obj`` raises ``ConfigError``.
    """
    if n_obj not in (1, 2):
        raise ConfigError(f"non-dominated sorting supports 1 or 2 objectives, not {n_obj}")
    vectors = [_objective_vector(m, n_obj) for m in members]
    if n_obj == 1:
        vectors = [(v[0], 0.0) for v in vectors]
    fronts: list[list[int]] = []
    lasts: list[tuple[float, ...]] = []  # the vector most recently added to each front
    for i in sorted(range(len(members)), key=vectors.__getitem__):
        v = vectors[i]
        lo, hi = 0, len(fronts)
        while lo < hi:  # first front whose last vector does not dominate v
            mid = (lo + hi) // 2
            last = lasts[mid]
            if last[1] <= v[1] and last != v:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(fronts):
            fronts.append([i])
            lasts.append(v)
        else:
            fronts[lo].append(i)
            lasts[lo] = v
    return [[members[i] for i in sorted(front)] for front in fronts]


def crowding_distance(front: list[Individual], n_obj: int = 2) -> dict[str, float]:
    """Per-name crowding distance; boundary members of each objective get infinity."""
    dist = {m.name: 0.0 for m in front}
    if len(front) <= 2:
        return {name: _INF for name in dist}
    vectors = [_objective_vector(m, n_obj) for m in front]
    for k in range(n_obj):
        ordered = sorted(range(len(front)), key=lambda i: (vectors[i][k], front[i].name))
        values = [vectors[i][k] for i in ordered]
        names = [front[i].name for i in ordered]
        dist[names[0]] = _INF
        dist[names[-1]] = _INF
        span = values[-1] - values[0]
        if span == 0.0:
            continue
        for i in range(1, len(ordered) - 1):
            if dist[names[i]] != _INF:
                dist[names[i]] += (values[i + 1] - values[i - 1]) / span
    return dist


def crowding_select(
    parents: Population, offspring: Population, pop_size: int | None = None, n_obj: int = 2
) -> Population:
    """NSGA-II style environmental selection: fill front-by-front, truncate by crowding."""
    size = pop_size if pop_size is not None else len(parents)
    pool = parents.members + offspring.members
    survivors: list[Individual] = []
    for front in nondominated_sort(pool, n_obj):
        if len(survivors) + len(front) <= size:
            survivors.extend(sorted(front, key=lambda m: m.name))
            continue
        dist = crowding_distance(front, n_obj)
        ranked = sorted(front, key=lambda m: (-dist[m.name], m.name))
        survivors.extend(ranked[: size - len(survivors)])
        break
    return Population(generation=parents.generation + 1, members=survivors)
