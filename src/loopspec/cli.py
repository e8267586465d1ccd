"""Command-line front end.

Analysis subcommands read a graph file (JSON or text, sniffed from the
first byte; ``-`` reads stdin) and print a JSON report envelope on stdout.
``generate`` and ``complement`` print a bare canonical graph JSON object
so they pipe into the other subcommands.  Diagnostics go to stderr.

Exit codes: 0 success, 1 usage, input or output error (a reader that
closes stdout early ends the command quietly with 1), 2 a mathematical
check failed (a certificate or sweep counterexample), 3 numerical
non-convergence.

Every JSON object printed follows a published schema in
``loopspec.schemas``; the test suite enforces them, so no run checks its
own output.

Numeric fields are serialized with 12 significant digits.  Reports for
identical inputs are byte-identical apart from the timestamp; pin the
SOURCE_DATE_EPOCH environment variable to freeze that too.  The
LOOPSPEC_TOL environment variable overrides the equality tolerance
(default 1e-7).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from datetime import datetime, timezone
from typing import Any

from . import __version__, bounds, decomposition
from .errors import CounterexampleError, FormatError, LoopspecError, NoConvergence
from .sweep import MAX_EXHAUSTIVE_ORDER, sweep as run_sweep
from .formats import load_path, loads, to_json_dict
from .graphs import FAMILIES, complement, generate
from .scc import non_cycle_arcs
from .spectral import GraphFacts

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_NO_CONVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2 for
    mathematical counterexamples, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _round_floats(obj: Any) -> Any:
    """12 significant digits, recursively; keeps reports diffable."""
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _timestamp() -> str:
    pinned = os.environ.get("SOURCE_DATE_EPOCH")
    moment = int(pinned) if pinned else int(time.time())
    return datetime.fromtimestamp(moment, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


def _read_graph(spec: str):
    if spec == "-":
        return loads(sys.stdin.read())
    return load_path(spec)


def _report(command: str, facts: GraphFacts | None, payload: dict) -> dict:
    graph_summary = None
    if facts is not None:
        graph_summary = {"n": facts.n, "m": facts.m, "sigma": facts.sigma,
                         "c2": facts.c2}
    return {
        "command": command,
        "input": graph_summary,
        "payload": payload,
        "version": __version__,
        "timestamp": _timestamp(),
    }


def _emit(obj: dict, table: bool = False) -> None:
    if table:
        _print_table(obj)
    else:
        print(json.dumps(_round_floats(obj), sort_keys=True))
    # Flush here so a reader that closed stdout early shows up as a
    # BrokenPipeError inside ``main``, not at interpreter exit.
    sys.stdout.flush()


def _discard_stdout() -> None:
    """Point stdout's descriptor at devnull after a broken pipe, so the
    interpreter's final flush of the unsent bytes stays quiet too."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):   # a stream with no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _print_table(obj: dict) -> None:
    """Opt-in flat rendering of a report for human eyes."""
    def walk(prefix: str, value: Any):
        if isinstance(value, dict):
            for key in value:
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            for i, item in enumerate(value):
                walk(f"{prefix}[{i}]", item)
        else:
            rendered = value
            if isinstance(value, float):
                rendered = format(value, ".12g")
            elif isinstance(value, list):
                rendered = " ".join(str(_round_floats(v)) for v in value)
            print(f"{prefix:<48} {rendered}")

    walk("", obj)


def _complex_pairs(values) -> list[list[float]]:
    return [[z.real, z.imag] for z in values]


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_spectrum(args) -> int:
    facts = GraphFacts(_read_graph(args.graph), with_residuals=True)
    payload = {
        "eigenvalues": _complex_pairs(facts.spectrum.values),
        "charpoly": list(facts.charpoly.full()),
        "rho": facts.spectrum.rho(),
        "residuals": list(facts.spectrum.residuals),
    }
    _emit(_report("spectrum", facts, payload), args.table)
    return EXIT_OK


def _cmd_energy(args) -> int:
    facts = GraphFacts(_read_graph(args.graph), with_residuals=True)
    report = facts.energy_report()
    payload = {
        "energy": report.energy,
        "rho": report.rho,
        "center": report.center,
        "deviations": list(report.deviations),
    }
    _emit(_report("energy", facts, payload), args.table)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    facts = GraphFacts(_read_graph(args.graph), with_residuals=True)
    if args.only is not None and args.only not in bounds.ALL_BOUND_IDS:
        print(f"unknown bound id {args.only!r}; known: "
              f"{', '.join(bounds.ALL_BOUND_IDS)}", file=sys.stderr)
        return EXIT_USAGE
    certs = bounds.all_certificates(facts, only=args.only)
    payload = {
        "certificates": [c.to_json_dict() for c in certs],
        "all_hold": all(c.holds for c in certs),
    }
    _emit(_report("bounds", facts, payload), args.table)
    return EXIT_OK if payload["all_hold"] else EXIT_COUNTEREXAMPLE


def _cmd_scc(args) -> int:
    facts = GraphFacts(_read_graph(args.graph), with_residuals=True)
    part = facts.partition
    crossing = sorted(non_cycle_arcs(facts.d, part))
    payload = {
        "component_of": list(part.component_of),
        "components": [list(c) for c in part.components],
        "non_cycle_arcs": [[u, v] for u, v in crossing],
        "is_disjoint_union_of_components": not crossing,
    }
    _emit(_report("scc", facts, payload), args.table)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    facts = GraphFacts(_read_graph(args.graph), with_residuals=True)
    analysis = facts.analysis
    payload = {
        "components": [
            {
                "n": c.n,
                "sigma": c.sigma,
                "ratio": c.ratio,
                "energy": c.energy,
                "eigenvalues": _complex_pairs(c.spectrum.values),
                "a_size": len(c.a_indices),
                "b_size": len(c.b_indices),
            }
            for c in analysis.components
        ],
        "total_energy": analysis.total_energy,
        "sum_component_energy": analysis.sum_component_energy,
        "l": analysis.l,
        "permutation": list(analysis.permutation),
        "center": analysis.center,
        "sufficient_condition": decomposition.sufficient_condition(facts).to_json_dict(),
        "necessary_condition": decomposition.necessary_condition(facts).to_json_dict(),
    }
    _emit(_report("decompose", facts, payload), args.table)
    return EXIT_OK


def _cmd_complement(args) -> int:
    d = _read_graph(args.graph)
    print(json.dumps(to_json_dict(complement(d)), sort_keys=True), flush=True)
    return EXIT_OK


def _int_list(raw: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",")]
    except ValueError:
        raise LoopspecError(f"{flag} takes comma separated integers, "
                            f"not {raw!r}") from None


def _parse_loops(raw: str, n: int) -> list[int]:
    if raw == "all":
        return list(range(n))
    if raw in ("none", ""):
        return []
    return _int_list(raw, "--loops")


def _cmd_generate(args) -> int:
    family = args.family
    if family == "complete_bipartite":
        if args.a is None or args.b is None:
            print("complete_bipartite needs --a and --b", file=sys.stderr)
            return EXIT_USAGE
        shape = {"a": args.a, "b": args.b}
        n = args.a + args.b
    elif family == "complete_multipartite":
        if not args.parts:
            print("complete_multipartite needs --parts", file=sys.stderr)
            return EXIT_USAGE
        ends = list(itertools.accumulate(_int_list(args.parts, "--parts")))
        shape = {"parts": [list(range(lo, hi)) for lo, hi in zip([0] + ends, ends)]}
        n = ends[-1]
    else:
        if args.n is None:
            print(f"{family} needs --n", file=sys.stderr)
            return EXIT_USAGE
        shape = {"n": args.n}
        n = args.n
    d = generate(family, loops=_parse_loops(args.loops, n), **shape)
    print(json.dumps(to_json_dict(d), sort_keys=True), flush=True)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    theorems = [tok.strip() for tok in args.theorems.split(",")] if args.theorems else ["all"]
    if args.samples is None and args.n > MAX_EXHAUSTIVE_ORDER:
        print(f"exhaustive enumeration capped at n = {MAX_EXHAUSTIVE_ORDER}; "
              "use --samples", file=sys.stderr)
        return EXIT_USAGE
    if args.samples is None and args.n >= 5 and not args.exhaustive:
        print("exhaustive n = 5 checks 291,968 relabeling classes standing for "
              "33.5M graphs: about a minute for two checks, longer for all; "
              "pass --exhaustive to opt in, or use --samples", file=sys.stderr)
        return EXIT_USAGE
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        print(f"--jobs must lie in 1..{cpus}, not {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = run_sweep(
            args.n,
            theorems,
            samples=args.samples,
            seed=args.seed,
            arc_prob=args.arc_prob,
            loop_prob=args.loop_prob,
            jobs=args.jobs,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    payload = report.to_json_dict()
    envelope = _report("sweep", None, payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(_round_floats(envelope), handle, sort_keys=True, indent=2)
                handle.write("\n")
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    _emit(envelope, args.table)
    if not report.ok:
        for item in report.counterexamples:
            print(f"counterexample for {item['check']}: "
                  f"{json.dumps(item['graph'], sort_keys=True)}", file=sys.stderr)
        for item in report.census_findings:
            print(f"census finding for {item['bound_id']} ({item['reason']}): "
                  f"{json.dumps(item['graph'], sort_keys=True)}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="loopspec",
                     description="Spectra, energy, and certified inequalities "
                                 "for directed graphs with self-loops.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_command(name: str, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("graph", help="graph file (JSON or text), or - for stdin")
        cmd.add_argument("--table", action="store_true",
                         help="human-readable table instead of JSON")
        return cmd

    add_graph_command("spectrum", "eigenvalues, charpoly, spectral radius")
    add_graph_command("energy", "energy report")
    bounds_cmd = add_graph_command("bounds", "all inequality certificates")
    bounds_cmd.add_argument("--only", default=None, metavar="BOUND_ID",
                            help="restrict to one bound id")
    add_graph_command("scc", "strong component partition")
    add_graph_command("decompose", "component-wise energy analysis")
    comp = sub.add_parser("complement", help="complement graph (canonical JSON)")
    comp.add_argument("graph", help="graph file, or - for stdin")

    gen = sub.add_parser("generate", help="named family graph (canonical JSON)")
    gen.add_argument("--family", required=True, choices=list(FAMILIES))
    gen.add_argument("--n", type=int, default=None, help="vertex count")
    gen.add_argument("--a", type=int, default=None, help="first bipartite part size")
    gen.add_argument("--b", type=int, default=None, help="second bipartite part size")
    gen.add_argument("--parts", default=None,
                     help="comma separated part sizes for complete_multipartite")
    gen.add_argument("--loops", default="none",
                     help="comma separated loop vertices, or 'all'/'none'")

    sw = sub.add_parser("sweep", help="fuzz the theorems over many graphs")
    sw.add_argument("--n", type=int, required=True)
    sw.add_argument("--theorems", default="all",
                    help="comma separated check names, or 'all'")
    sw.add_argument("--exhaustive", action="store_true",
                    help="all 2^(n*n) graphs, one per relabeling class; the "
                         "default up to n = 4, required to opt in at n = 5")
    sw.add_argument("--samples", type=int, default=None,
                    help="sampled mode with this many random graphs")
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--arc-prob", type=float, default=0.5)
    sw.add_argument("--loop-prob", type=float, default=0.5)
    sw.add_argument("--jobs", type=int, default=1,
                    help="worker processes, 1..cpu count")
    sw.add_argument("--out", default=None, help="also write the report here")
    sw.add_argument("--table", action="store_true")
    return parser


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "energy": _cmd_energy,
    "bounds": _cmd_bounds,
    "scc": _cmd_scc,
    "decompose": _cmd_decompose,
    "complement": _cmd_complement,
    "generate": _cmd_generate,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # The reader closed stdout early, as ``loopspec bounds g.json |
        # head -c 200`` does: nothing is left to report to.
        _discard_stdout()
        return EXIT_USAGE
    except NoConvergence as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except CounterexampleError as exc:
        print(f"mathematical check failed: {exc}", file=sys.stderr)
        if exc.graph is not None:
            print(json.dumps(to_json_dict(exc.graph), sort_keys=True),
                  file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except (FormatError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LoopspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
