"""Exact-arithmetic fan realizations of 2-associahedra via subword complexes."""

__version__ = "0.1.0"

from .words import Word, c_sorted_word, multiassociahedron_word, parse_word
from .subword import all_facets, greedy_facet, vertex_status
from .polygon import enumerate_k_triangulations, diagonal_to_position, position_to_diagonal
from .moves import apply_move, classify_braid, fattening_sequence
from .rays import RayAssignment, build_rays, parse_ray_file, format_ray_file
from .fan import certify_fan, stream_statistics, classify_ridge, condition_one

__all__ = [
    "Word", "c_sorted_word", "multiassociahedron_word", "parse_word",
    "all_facets", "greedy_facet", "vertex_status",
    "enumerate_k_triangulations", "diagonal_to_position", "position_to_diagonal",
    "apply_move", "classify_braid", "fattening_sequence",
    "RayAssignment", "build_rays", "parse_ray_file", "format_ray_file",
    "certify_fan", "stream_statistics", "classify_ridge", "condition_one",
]
