"""
Command-line surface: construction, enumeration, certification and table
reproduction.

Exit codes: 0 certified / PASS, 1 verified failure (degeneracies found,
reproduction mismatch, oracle mismatch), 2 usage or IO error, or no
verdict.  ``main`` is the one error boundary: a ``ValueError`` (bad input),
an ``OSError`` (a file that cannot be read or written) or an
``ArithmeticError`` (a self-check of the certifier that failed, so that
the run has no verdict) from any command becomes ``error: ...`` on stderr
and exit 2, before any ``--out`` file is written.

``--tier`` caps n for every command: ``_resolve_word`` applies it to the
word of ``--kn`` or ``--word``, and the commands that take ``--n`` apply
it to that (``reproduce`` to the largest column, before it builds the
column list).  ``_resolve_word`` and ``trace`` also cap the word's facet
size at twice that, the facet size of c^2 w0(cap), so that each tier's
largest complex is Delta(2, cap); a word c^k w0(n) is capped before it
is built.

Output files carry deterministic headers only (construction, n, seed,
counts); ``_write_output`` writes each one together with a JSON manifest
(timestamp, tool version, content digest) next to it.  Reruns with the
same arguments and seed produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
import time
from collections.abc import Iterable

from . import TABLE_IDS, __version__
from .fan import STAT_ROWS, CheckReport, certify_fan, format_stats_table
from .rays import format_ray_file, parse_ray_file
from .subword import all_facets, format_facet_file, positions_of
from .words import Word, _integer, format_word, multiassociahedron_word, parse_shorthand, parse_word

TIER_CAP = {"desk": 5, "full": 8}


def _tier_check(n: int, tier: str, facet_size: int = 0):
    """Refuse n < 1, then cap n and the facet size by the tier.  With n >= 1,
    a facet size k n below 0 passes, for the word to refuse k < 0."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cap = TIER_CAP[tier]
    if n > cap:
        name, what, scale = "n", f"n={n}", 1
    elif facet_size > 2 * cap:
        name, what, scale = "facet size", f"facet size {facet_size}", 2
    else:
        return
    hint = "".join(f"; pass --tier {larger} for {name} up to {scale * c}"
                   for larger, c in TIER_CAP.items() if c > cap)
    raise ValueError(f"{what} exceeds the {tier} tier cap ({scale * cap}){hint}")


def _write_output(args, path: str, chunks: Iterable[str], **facts):
    """Write the text ``chunks`` to ``path`` one at a time, hashing them as
    they go, then the manifest, which records ``facts`` (construction, n,
    k, seed), to ``path.manifest.json``."""
    import hashlib

    digest = hashlib.sha256()
    with open(path, "w") as fh:
        for chunk in chunks:
            fh.write(chunk)
            digest.update(chunk.encode())
    manifest = {"command": shlex.join(args.argv), "timestamp": time.time(), "version": __version__,
                "outputs": {path: f"sha256:{digest.hexdigest()}"},
                "construction": None, "n": None, "k": None, "seed": None, **facts}
    with open(path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(args, chunks: Iterable[str], **facts):
    if args.out:
        _write_output(args, args.out, chunks, **facts)
    else:
        sys.stdout.writelines(chunks)


def _integer_arg(spec: str) -> int:
    """An integer option, read as the integers of a word spec are."""
    try:
        return _integer(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _kn(spec: str) -> tuple[int, int]:
    """The ``--kn`` argument: two comma-separated integers k,n."""
    try:
        k, n = (_integer(t) for t in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated integers k,n, got {spec!r}"
        ) from None
    return k, n


def _resolve_word(args) -> tuple[Word, int | None]:
    """The word of ``--kn`` or ``--word``, within the ``--tier`` cap, and its k
    (None for an explicit ``--word``)."""
    if getattr(args, "kn", None) is not None:
        k, n = args.kn
    elif getattr(args, "word", None) is not None:
        shorthand = parse_shorthand(args.word)
        if shorthand is None:
            # an explicit word is no longer than its spec
            word = parse_word(args.word)
            _tier_check(word.rank, args.tier, len(word) - word.rank * (word.rank + 1) // 2)
            return word, None
        k, n = shorthand
    else:
        raise ValueError("pass --word or --kn")
    # c^k w0(n) has facet size k n: capped before the word is built
    _tier_check(n, args.tier, k * n)
    return multiassociahedron_word(k, n), k


def cmd_facets(args) -> int:
    word, k = _resolve_word(args)
    _emit(args, format_facet_file(all_facets(word)), n=word.rank, k=k)
    return 0


def cmd_rays(args) -> int:
    from .rays import build_rays

    _tier_check(args.n, args.tier)
    if args.construction == "perturbed" and args.seed is None:
        raise ValueError("perturbed construction requires --seed")
    ra = build_rays(args.construction, args.n, args.seed)
    _emit(args, [format_ray_file(ra)], construction=args.construction, n=args.n, seed=ra.seed)
    return 0


def _report_json(word: Word, ra, rep: CheckReport) -> str:
    doc = {
        "word": format_word(word),
        "n": word.rank,
        "construction": ra.construction,
        "seed": ra.seed,
        "certified": rep.certified,
        "condition1": rep.condition1,
        "condition1_holds": rep.condition1_holds,
        "base_facet": None if rep.base_facet is None else list(rep.base_facet),
        "first_failure": rep.first_failure,
        "stats": {row: getattr(rep.stats, row) for _, row in STAT_ROWS},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_check(args) -> int:
    with open(args.rays) as fh:
        ra = parse_ray_file(fh.read())
    word, k = _resolve_word(args)
    if ra.word != word:
        raise ValueError(f"ray file is for {format_word(ra.word)}, not {format_word(word)}")
    rep = certify_fan(ra)
    sys.stdout.write(format_stats_table([rep.stats]))
    if rep.certified:
        sys.stdout.write("certified: complete simplicial fan\n")
    else:
        sys.stdout.write(f"not certified: {rep.first_failure}\n")
    if args.out:
        _write_output(args, args.out, [_report_json(word, ra, rep)],
                      construction=ra.construction, n=word.rank, k=k, seed=ra.seed)
    return 0 if rep.certified else 1


def cmd_reproduce(args) -> int:
    from .tables import reproduce_table

    ns = _parse_range(args.n, args.tier) if args.n else None
    results = reproduce_table(args.table, ns)
    fails = 0
    for cell in results:
        if cell.ok:
            sys.stdout.write(f"PASS {cell.cell} = {cell.got}\n")
        else:
            fails += 1
            sys.stdout.write(
                f"FAIL {cell.cell}: expected {cell.expected}, got {cell.got}\n"
            )
    sys.stdout.write(f"{args.table}: {len(results) - fails}/{len(results)} cells match\n")
    return 1 if fails else 0


def cmd_oracle(args) -> int:
    from .polygon import enumerate_k_triangulations, format_triangulations, position_diagonals

    word, k = _resolve_word(args)
    n = word.rank
    tris = enumerate_k_triangulations(k, n)
    oracle = set(tris)
    diags = position_diagonals(k, n)
    facets = {frozenset(diags[pos - 1] for pos in positions_of(f))
              for f in all_facets(word).facets}
    if args.out:
        _write_output(args, args.out, [format_triangulations(tris)], n=n, k=k)
    if oracle == facets:
        sys.stdout.write(
            f"PASS k={k} n={n}: {len(facets)} facets on both routes\n"
        )
        return 0
    only_oracle = len(oracle - facets)
    only_subword = len(facets - oracle)
    sys.stdout.write(
        f"FAIL k={k} n={n}: {only_oracle} oracle-only, {only_subword} subword-only\n"
    )
    return 1


def cmd_trace(args) -> int:
    from .moves import fattening_sequence, format_trace

    _tier_check(args.n, args.tier, args.k_prefix * args.n)
    word = multiassociahedron_word(args.k_prefix, args.n)
    trace = fattening_sequence(word, triangle_start=args.k_prefix * args.n)
    _emit(args, [format_trace(trace, verbose=args.verbose)], n=args.n, k=args.k_prefix)
    return 0


def _parse_range(spec: str, tier: str) -> list[int]:
    """The ``--n`` columns: ``lo..hi`` or a comma-separated list, each
    column at least 1 and none repeated.  The ``--tier`` cap is applied to
    the largest column before a range is built.

    >>> _parse_range("2..4", "desk"), _parse_range("5,1", "desk")
    ([2, 3, 4], [5, 1])
    """
    bad = ValueError(f"--n takes a column range like 1..5 or 1,3, got {spec!r}")
    ns = None
    try:
        if ".." in spec:
            lo, hi = (_integer(t) for t in spec.split("..", 1))
        else:
            ns = [_integer(t) for t in spec.split(",")]
            lo, hi = min(ns), max(ns)
    except ValueError:
        raise bad from None
    if lo < 1 or lo > hi or (ns is not None and len(set(ns)) < len(ns)):
        raise bad
    _tier_check(hi, tier)
    return list(range(lo, hi + 1)) if ns is None else ns


def _common(sub, out=True):
    sub.add_argument("--tier", choices=sorted(TIER_CAP), default="desk")
    sub.add_argument("--threads", type=_integer_arg, choices=(1,), default=1,
                     help="single-process only; kept so that existing command lines still run")
    if out:
        sub.add_argument("--out", help="write the result here (plus .manifest.json)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="multifan",
        description="construct and certify fan realizations of 2-associahedra",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("facets", help="enumerate subword-complex facets")
    s.add_argument("--word", help='word spec, e.g. "c^2 w0(3)" or "n=3; 1 2 3 1 2 1"')
    s.add_argument("--kn", type=_kn, metavar="K,N", help="k,n shorthand for c^k w0(n)")
    _common(s)
    s.set_defaults(func=cmd_facets)

    s = subs.add_parser("rays", help="build construction rays")
    s.add_argument("--construction", required=True,
                   help="naive | fixed[:L,R] | linear | perturbed | pattern | pattern-verbatim | loday")
    s.add_argument("--n", type=_integer_arg, required=True)
    s.add_argument("--seed", type=_integer_arg)
    _common(s)
    s.set_defaults(func=cmd_rays)

    s = subs.add_parser("check", help="certify a ray file against a word")
    s.add_argument("--rays", required=True, help="ray file path")
    s.add_argument("--word", help="word spec")
    s.add_argument("--kn", type=_kn, metavar="K,N", help="k,n shorthand")
    _common(s)
    s.set_defaults(func=cmd_check)

    s = subs.add_parser("reproduce", help="regenerate a reference table and diff it")
    s.add_argument("table", choices=TABLE_IDS)
    s.add_argument("--n", help="column range for statistics tables, e.g. 1..5")
    _common(s, out=False)
    s.set_defaults(func=cmd_reproduce)

    s = subs.add_parser("oracle", help="compare brute-force triangulations with subword facets")
    s.add_argument("--kn", type=_kn, metavar="K,N", required=True, help="k,n")
    _common(s)
    s.set_defaults(func=cmd_oracle)

    s = subs.add_parser("trace", help="emit a fattening move trace")
    s.add_argument("--n", type=_integer_arg, required=True)
    s.add_argument("--k-prefix", type=_integer_arg, default=0,
                   help="fatten the staircase after k copies of c")
    s.add_argument("--verbose", action="store_true",
                   help="print the word after each move")
    _common(s)
    s.set_defaults(func=cmd_trace)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
