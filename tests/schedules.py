"""Match schedules: the tests' reference for playing, rebuilding and repairing brackets.

A schedule lists each round's (winner, loser) matches.  The package plays
and repairs brackets on leaf orders and records a played bracket only as
the rounds ``bracket_rounds`` returns.  This module keeps the older forms
as references the tests compare the package against: ``Trace`` and
``simulate`` are the record of a played bracket as per-round frozensets of
matches, survivors and losers, with ``niceness`` and ``format_trace`` read
from it; ``validate_match_sequence`` checks a schedule,
``seeding_from_sequence`` folds one back into a seeding, and
``repair_to_nice`` is the niceness repair written as a schedule rewrite,
which ``tfpsolve.repair_to_nice`` must match seeding for seeding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from tfpsolve import NicenessReport, Seeding, Tournament, bracket_rounds, champion_of
from tfpsolve.core import Match


@dataclass(frozen=True)
class Trace:
    """Full record of one played-out bracket.

    ``survivors[r]`` is the set still alive after round r (``survivors[0]`` is
    everyone), ``losers[r-1]`` the players eliminated in round r, ``rounds[r-1]``
    that round's (winner, loser) matches.
    """

    rounds: tuple[frozenset[Match], ...]
    survivors: tuple[frozenset[int], ...]
    losers: tuple[frozenset[int], ...]
    champion: int


def simulate(t: Tournament, s: Seeding) -> Trace:
    """Play out the bracket given by ``s`` one match at a time through
    ``Tournament.beats`` and record every round."""
    if s.n != t.n:
        raise ValueError(f"seeding over {s.n} players does not fit n={t.n}")
    cur = list(s.leaf_order)
    rounds, survivors, losers = [], [frozenset(cur)], []
    while len(cur) > 1:
        matches = [(u, v) if t.beats(u, v) else (v, u) for u, v in zip(cur[::2], cur[1::2])]
        cur = [w for w, _ in matches]
        rounds.append(frozenset(matches))
        losers.append(frozenset(l for _, l in matches))
        survivors.append(frozenset(cur))
    return Trace(tuple(rounds), tuple(survivors), tuple(losers), cur[0])


def niceness(t: Tournament, trace: Trace) -> NicenessReport:
    """A round is *nice* when it eliminates someone who beats the favorite,
    or when nobody of that kind was still standing as it began."""
    ins = t.in_neighbors
    per = tuple(
        bool(trace.losers[i] & ins) or not trace.survivors[i] & ins
        for i in range(len(trace.rounds))
    )
    return NicenessReport(per_round=per, all_nice=all(per))


def format_trace(trace: Trace) -> str:
    """``round r: (w,l) ...`` lines, each round's matches sorted, plus the champion."""
    lines = [
        f"round {r}: " + " ".join(f"({w},{l})" for w, l in sorted(matches))
        for r, matches in enumerate(trace.rounds, start=1)
    ]
    return "\n".join(lines + [f"champion: {trace.champion}"])


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

