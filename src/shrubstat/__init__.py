"""Exact rise-statistic distributions over forests of binary shrubs.

Everything is computed in exact arithmetic (big integers and rationals)
and every closed formula is cross-checkable against brute-force
enumeration oracles shipped in the same package.
"""

from .errors import GuardExceeded
from .forests import (
    Forest,
    RiseKind,
    Shrub,
    enumerate_forests,
    forest_count,
    forest_from_perm,
    forest_to_perm,
    min_rise_count,
    reduction,
    rise_distribution,
    rise_stat,
    rises,
    shrub_less,
    within_shrub_rises,
)
from .counts import (
    eulerian_poly,
    iaf,
    ibf,
    ilf,
    itf,
    lb_via_ode,
    linext_seq,
    ode_residuals,
    within_rise_poly,
)
from .kreweras import (
    RowLabeling,
    Step,
    count_paths,
    enumerate_paths,
    extension_from_rows,
    is_valid_path,
    path_from_rows,
    path_from_word,
    path_word,
    rows_from_extension,
    rows_from_path,
)
from .polynomial import XPoly
from .posets import (
    Poset,
    build_adjacent_poset,
    build_ibf_poset,
    build_isf_poset,
    build_lex_poset,
    count_linear_extensions,
    enumerate_linear_extensions,
)
from .series import (
    EgfSeries,
    StatGF,
    build_gf,
    closed_form_gf,
    min_rise_gf,
    rise_gf,
    rise_gf_via_fraction,
)

__version__ = "0.1.0"

__all__ = [
    "EgfSeries",
    "Forest",
    "GuardExceeded",
    "Poset",
    "RiseKind",
    "RowLabeling",
    "Shrub",
    "StatGF",
    "Step",
    "XPoly",
    "build_adjacent_poset",
    "build_gf",
    "build_ibf_poset",
    "build_isf_poset",
    "build_lex_poset",
    "closed_form_gf",
    "count_linear_extensions",
    "count_paths",
    "enumerate_forests",
    "enumerate_linear_extensions",
    "enumerate_paths",
    "eulerian_poly",
    "extension_from_rows",
    "forest_count",
    "forest_from_perm",
    "forest_to_perm",
    "iaf",
    "ibf",
    "ilf",
    "is_valid_path",
    "itf",
    "lb_via_ode",
    "linext_seq",
    "min_rise_count",
    "min_rise_gf",
    "ode_residuals",
    "path_from_rows",
    "path_from_word",
    "path_word",
    "reduction",
    "rise_distribution",
    "rise_gf",
    "rise_gf_via_fraction",
    "rise_stat",
    "rises",
    "rows_from_extension",
    "rows_from_path",
    "shrub_less",
    "within_rise_poly",
    "within_shrub_rises",
]
