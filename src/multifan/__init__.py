"""Exact-arithmetic fan realizations of 2-associahedra via subword complexes.

The names below are imported from their modules on first use, so that a
command imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# the reference tables that ``multifan reproduce`` regenerates, here so that
# the command line lists them without importing ``tables``
TABLE_IDS = ("T1", "T2", "T3", "T4", "T5-integer", "T6", "F10", "F12")

_MODULE_OF = {
    "words": ("Word", "c_sorted_word", "multiassociahedron_word", "parse_word"),
    "subword": ("all_facets", "greedy_facet"),
    "polygon": ("enumerate_k_triangulations", "diagonal_to_position", "position_to_diagonal"),
    "moves": ("apply_move", "classify_braid", "fattening_sequence"),
    "rays": ("RayAssignment", "build_rays", "parse_ray_file", "format_ray_file"),
    "fan": ("certify_fan", "stream_statistics"),
}
_MODULE = {name: module for module, names in _MODULE_OF.items() for name in names}

__all__ = list(_MODULE)


def __getattr__(name: str):
    module = _MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
