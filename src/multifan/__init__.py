"""Exact-arithmetic fan realizations of 2-associahedra via subword complexes."""

__version__ = "0.1.0"

# the reference tables that ``multifan reproduce`` regenerates, here so that
# the command line lists them without importing ``tables``
TABLE_IDS = ("T1", "T2", "T3", "T4", "T5-integer", "T6", "F10", "F12")
