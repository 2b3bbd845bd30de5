"""Match schedules: the tests' reference for rebuilding and repairing brackets.

A schedule lists each round's (winner, loser) matches.  The package plays
and repairs brackets on leaf orders and produces schedules only as output
(``simulate``, ``bracket_rounds``).  This module keeps the schedule form as
a reference the tests compare that against: ``validate_match_sequence``
checks a schedule, ``seeding_from_sequence`` folds one back into a seeding,
and ``repair_to_nice`` is the niceness repair written as a schedule
rewrite, which ``tfpsolve.repair_to_nice`` must match seeding for seeding.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from tfpsolve import Seeding, Tournament, bracket_rounds, champion_of, niceness, simulate
from tfpsolve.core import Match


def validate_match_sequence(
    t: Tournament, rounds: Sequence[Iterable[Match]]
) -> bool:
    """Check that ``rounds`` is a playable knockout schedule for ``t``.

    Round r must hold n / 2**r matches on distinct players, every match must
    be oriented along an arc of ``t``, round 1 must cover all players, and
    each later round must be contested by exactly the previous winners.
    """
    if len(rounds) != t.num_rounds:
        return False
    expected = set(t.players)
    for r, matches in enumerate(rounds, start=1):
        matches = list(matches)
        if len(matches) != t.n >> r:
            return False
        seen: set[int] = set()
        for w, l in matches:
            if w in seen or l in seen or w == l:
                return False
            seen.update((w, l))
            if not (0 <= w < t.n and 0 <= l < t.n and t.beats(w, l)):
                return False
        if seen != expected:
            return False
        expected = {w for w, _ in matches}
    return True


def seeding_from_sequence(rounds: Sequence[Iterable[Match]]) -> Seeding:
    """Rebuild a seeding whose simulation replays ``rounds``.

    Folds the schedule round by round: each match's winner keeps its block
    on the left and the loser's block fills the right half.  A loop, not a
    recursive closure, which would be a reference cycle holding the whole
    schedule until the cyclic garbage collector runs.
    """
    schedule = [dict(matches) for matches in rounds]
    if not schedule:
        raise ValueError("cannot rebuild a seeding from an empty schedule")
    if len(schedule[-1]) != 1:
        raise ValueError("final round must hold exactly one match")
    block: dict[int, tuple[int, ...]] = {}
    for matches in schedule:
        for w, l in matches.items():
            block[w] = block.pop(w, (w,)) + block.pop(l, (l,))
    (champion,) = schedule[-1]
    return Seeding(block[champion])


def repair_to_nice(t: Tournament, s: Seeding) -> tuple[Seeding, int]:
    """Rewrite a winning seeding until every round is nice.

    Returns (seeding, number of rewrites).  Each rewrite locates the last
    non-nice round, pulls its losers W out (none of them beat the favorite,
    by non-niceness), replays W as its own side bracket overlaid onto the
    later rounds, and gives the favorite the W-champion as a bonus final.
    That leaves earlier rounds untouched and makes every round from the
    rewritten one onward nice, so at most log2(n) rewrites happen.
    """
    trace = simulate(t, s)
    if trace.champion != t.vstar:
        raise ValueError("can only repair a seeding that crowns the favorite")
    total = t.num_rounds
    cur = s
    count = 0
    while True:
        rep = niceness(t, trace)
        if rep.all_nice:
            return cur, count
        p = max(i for i, ok in enumerate(rep.per_round) if not ok) + 1
        if p >= total:
            raise AssertionError("the final round of a winning bracket is always nice")
        w = sorted(trace.losers[p - 1])
        if t.vstar in w or t.in_neighbors.intersection(w):
            raise AssertionError("a non-nice round eliminated the favorite or a conqueror")
        w_rounds = bracket_rounds(t, w)
        new_rounds: list[list[Match]] = [list(r) for r in trace.rounds[: p - 1]]
        for q in range(p, total):
            new_rounds.append(list(trace.rounds[q]) + w_rounds[q - p])
        new_rounds.append([(t.vstar, champion_of(t, w))])
        if not validate_match_sequence(t, new_rounds):
            raise AssertionError("rewrite broke the schedule")
        cur = seeding_from_sequence(new_rounds)
        trace = simulate(t, cur)
        count += 1
        if count > total:
            raise AssertionError("repair failed to terminate")

