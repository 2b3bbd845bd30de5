"""Deciding and constructing rigged single-elimination brackets.

Given a round-robin results table and a favorite player, the solvers here
answer whether some bracket seeding crowns the favorite, and produce one
when it exists.  ``solve`` is the one solver entry point.  See ``core`` for
the instance format and simulation, ``embed``/``indeg`` for the solvers,
``oracles`` for exhaustive baselines and structural checks, and ``cli`` for
the command-line entry point.  Every bracket tree, in the solvers and the
oracles alike, is held as the leaf order of a bracket its root wins, root
first, and the package builds no match schedule except as output
(``simulate``, ``bracket_rounds``, ``format_trace``).
"""

from .core import (
    KnockoutTrace,
    ParseError,
    Seeding,
    Tournament,
    bracket_rounds,
    champion_of,
    format_tournament,
    format_trace,
    parse_tournament,
    simulate,
)
from .embed import solve_exact
from .indeg import complete_wwf, find_wwf, pick, solve
from .instances import gen_planted_yes, gen_random
from .oracles import (
    NicenessReport,
    OracleLimitError,
    brute_force_decide,
    brute_force_wwf,
    enumerate_seedings,
    extract_local_lba,
    is_wwf,
    niceness,
    repair_to_nice,
)

__version__ = "0.1.0"

__all__ = [
    "KnockoutTrace",
    "NicenessReport",
    "OracleLimitError",
    "ParseError",
    "Seeding",
    "Tournament",
    "bracket_rounds",
    "brute_force_decide",
    "brute_force_wwf",
    "champion_of",
    "complete_wwf",
    "enumerate_seedings",
    "extract_local_lba",
    "find_wwf",
    "format_tournament",
    "format_trace",
    "gen_planted_yes",
    "gen_random",
    "is_wwf",
    "niceness",
    "parse_tournament",
    "pick",
    "repair_to_nice",
    "simulate",
    "solve",
    "solve_exact",
]
