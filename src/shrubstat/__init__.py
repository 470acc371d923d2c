"""Exact rise-statistic distributions over forests of binary shrubs.

Everything is computed in exact big-integer arithmetic, where a quotient
that is not an integer raises, and every closed formula is cross-checkable
against brute-force enumeration oracles shipped in the same package.

The public names below are loaded on first use (PEP 562), so importing
the package, or one of its modules, does not import every layer.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Public names by the module that defines them.
_EXPORTS = {
    "forests": (
        "Forest",
        "Shrub",
        "enumerate_forests",
        "forest_count",
        "forest_from_perm",
        "forest_to_perm",
        "min_rise_count",
        "reduction",
        "rise_distribution",
        "rise_stat",
        "rises",
        "shrub_less",
        "within_shrub_rises",
    ),
    "counts": (
        "eulerian_poly",
        "iaf",
        "ibf",
        "ilf",
        "itf",
        "lb_via_ode",
        "linext_seq",
        "ode_residuals",
        "within_rise_poly",
    ),
    "kreweras": (
        "RowLabeling",
        "Step",
        "count_paths",
        "enumerate_paths",
        "extension_from_rows",
        "is_valid_path",
        "path_from_rows",
        "path_from_word",
        "path_word",
        "rows_from_extension",
        "rows_from_path",
        "walk_blocks",
    ),
    "names": ("GuardExceeded", "RiseKind"),
    "polynomial": ("XPoly",),
    "posets": (
        "Poset",
        "build_adjacent_poset",
        "build_ibf_poset",
        "build_isf_poset",
        "build_lex_poset",
        "count_linear_extensions",
        "count_tree_extensions",
        "enumerate_linear_extensions",
        "labeling_blocks",
    ),
    "series": (
        "EgfSeries",
        "StatGF",
        "build_gf",
        "closed_form_gf",
        "min_rise_gf",
        "rise_gf",
        "rise_gf_via_fraction",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name's module (or a layer module) on first access."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
