"""Names and default sizes that the command-line parser and the layers share.

The parser builds its choices and defaults from this module alone, so a
command loads only the layers it runs.  Nothing here imports from the
package; each layer re-exports the names it owns.
"""

from enum import Enum


class RiseKind(str, Enum):
    """The five rise statistics, keyed by their command-line names."""

    WORD = "ris"
    TOTAL = "risT"
    BASE = "risB"
    LEX = "risL"
    ADJACENT = "risA"


#: CLI name of the minimal-ascent counting series.
MIN_RISE = "minris"

#: Statistics with a generating function: the five rises and ``minris``.
GF_STATS = tuple(kind.value for kind in RiseKind) + (MIN_RISE,)

#: The linear-extension sequences of the adjacent-chain posets.
LINEXT_KINDS = ("LA", "LB", "LE", "LS")

#: Default truncation in shrub units (t**18), the deepest order anything
#: in the package needs by default.
DEFAULT_SHRUBS = 6

#: Default bound on the number of shrubs for exhaustive enumeration.
#: (3*4)!/3**4 is about 5.9 million forests, which the sweep counts in
#: about 0.25 s of CPU time (2.0 GHz Xeon, Python 3.11); n = 5 is about
#: 5.4e9 and is refused unless the caller raises the guard.
DEFAULT_MAX_SHRUBS = 4

#: Walks of 6 triples number 835584; beyond that enumeration is refused
#: unless the caller raises the guard.
DEFAULT_MAX_TRIPLES = 6
