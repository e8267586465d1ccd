"""The benchmark's workloads: inputs, warm-up, one operation, output checks.

Each workload goes through the program's public API only:
``loopspec.sweep.sweep`` in process, or the ``loopspec`` command line in a
fresh interpreter per call.  Program functions are looked up on their
module at call time, so a traced run sees every call.
"""

from __future__ import annotations

import importlib
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks

# What the ``loopspec`` console script runs.
CLI_ENTRY = "from loopspec.cli import entry_point; entry_point()"


class SweepWorkload:
    """One operation is one ``sweep()`` pass with ``jobs=1``."""

    round_ops = 1
    trace_ops = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.reports: list = []

    def setup(self) -> None:
        # The package rebinds the name ``sweep`` to the function.
        self.module = importlib.import_module("loopspec.sweep")
        self.warm_up()

    def warm_up(self) -> None:
        raise NotImplementedError

    def sweep_args(self, index: int) -> tuple[tuple, dict]:
        raise NotImplementedError

    def run_op(self, index: int) -> int:
        args, kwargs = self.sweep_args(index)
        report = self.module.sweep(*args, jobs=1, **kwargs)
        self.reports.append(report)
        return report.graphs_checked

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def problems(self) -> list[str]:
        out = []
        for i, report in enumerate(self.reports):
            out.extend(f"pass {i}: {p}" for p in self.check(report.to_json_dict()))
        return out

    def close(self) -> None:
        pass


class ExhaustiveN3(SweepWorkload):
    """All 22 checks over all 512 labeled n = 3 graphs."""

    trace_ops = 6

    def warm_up(self) -> None:
        self.module.sweep(2, "all", jobs=1)

    def sweep_args(self, index):
        return (3, "all"), {}

    def check(self, report: dict) -> list[str]:
        if not hasattr(self, "reference"):
            self.reference = checks.exhaustive_reference(3)
        return checks.check_exhaustive(report, self.reference)


class CensusN4(SweepWorkload):
    """The McClelland and rho-lower equality census over all 65,536 labeled
    n = 4 graphs."""

    trace_ops = 2

    def warm_up(self) -> None:
        self.module.sweep(2, list(checks.CENSUS_CHECKS), jobs=1)

    def sweep_args(self, index):
        return (checks.CENSUS_N, list(checks.CENSUS_CHECKS)), {}

    def check(self, report: dict) -> list[str]:
        if not hasattr(self, "reference"):
            self.reference = checks.census_reference()
        return checks.check_census(report, self.reference)


class SampledN7(SweepWorkload):
    """All checks on seeded random n = 7 graphs, arcs and loops each with
    probability 1/2.  The program draws sample i from ``seed + i``, so the
    passes of all runs use seeds spaced ``SAMPLES`` apart and never share
    a graph."""

    SAMPLES = 48
    trace_ops = 8

    def warm_up(self) -> None:
        self.module.sweep(6, "all", samples=2, seed=self.seed, jobs=1)

    def sweep_args(self, index):
        return (7, "all"), {"samples": self.SAMPLES,
                            "seed": (self.seed * 100_000 + index) * self.SAMPLES}

    def check(self, report: dict) -> list[str]:
        return checks.check_sampled(report, self.SAMPLES)


# ---------------------------------------------------------------------------
# cli-cold

def _random_graph(rng: random.Random, n: int, arc_p: float, loop_p: float) -> dict:
    return {"n": n,
            "arcs": [[u, v] for u in range(n) for v in range(n)
                     if u != v and rng.random() < arc_p],
            "loops": [v for v in range(n) if rng.random() < loop_p]}


def _cycle(rng: random.Random, n: int) -> dict:
    order = list(range(n))
    rng.shuffle(order)
    return {"n": n,
            "arcs": sorted([order[i], order[(i + 1) % n]] for i in range(n)),
            "loops": [v for v in range(n) if rng.random() < 0.5]}


def _bipartite(rng: random.Random, n: int) -> dict:
    a = rng.randint(1, n - 1)
    return {"n": n,
            "arcs": sorted([u, v] for u in range(n) for v in range(n)
                           if (u < a) != (v < a)),
            "loops": [v for v in range(n) if rng.random() < 0.5]}


def _union(rng: random.Random, n: int) -> dict:
    """Disjoint digons, directed triangles and single vertices."""
    arcs, start = [], 0
    while start < n:
        size = min(rng.randint(1, 3), n - start)
        block = list(range(start, start + size))
        if size == 2:
            arcs += [[block[0], block[1]], [block[1], block[0]]]
        elif size == 3:
            arcs += [[block[i], block[(i + 1) % 3]] for i in range(3)]
        start += size
    return {"n": n, "arcs": sorted(arcs),
            "loops": [v for v in range(n) if rng.random() < 0.5]}


FAMILIES = {
    "sparse": lambda rng, n: _random_graph(rng, n, 0.2, 0.3),
    "dense": lambda rng, n: _random_graph(rng, n, 0.7, 0.6),
    "cycle": _cycle,
    "bipartite": _bipartite,
    "union": _union,
}
COMMANDS = ("energy", "bounds", "decompose", "spectrum")


def cli_pool(seed: int) -> list[tuple[str, dict]]:
    """One round: each command twice, in a seeded order, on graphs with
    n = 2..8 from a seeded family."""
    rng = random.Random(f"cli-cold/{seed}")
    commands = list(COMMANDS) * 2
    rng.shuffle(commands)
    pool = []
    for command in commands:
        n = rng.randint(2, 8)
        family = rng.choice(sorted(FAMILIES))
        pool.append((command, FAMILIES[family](rng, n)))
    return pool


def _graph_text(graph: dict) -> str:
    lines = [f"n {graph['n']}"]
    lines += [f"a {u} {v}" for u, v in graph["arcs"]]
    lines += [f"l {v}" for v in graph["loops"]]
    return "\n".join(lines) + "\n"


def _graph_json(graph: dict) -> str:
    import json

    return json.dumps(graph) + "\n"


class CliCold:
    """One operation is one ``loopspec <command> <file>`` process, run one
    at a time; a round is the seeded pool of eight calls.  Files alternate
    between the JSON and the text format."""

    trace_ops = 24

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.calls: list[tuple[str, dict, str]] = []
        self.results: list[tuple[int, str, str]] = []   # (call index, returncode, stdout)
        self.peak_kb = 0
        self.tmp: str | None = None

    @property
    def round_ops(self) -> int:
        return len(self.calls)

    def setup(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=self.out_dir)
        for i, (command, graph) in enumerate(cli_pool(self.seed)):
            fmt = (_graph_json, ".json") if i % 2 == 0 else (_graph_text, ".txt")
            path = os.path.join(self.tmp, f"g{i}{fmt[1]}")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(fmt[0](graph))
            self.calls.append((command, graph, path))
        self.stderr_path = os.path.join(self.tmp, "stderr")
        returncode, _, _ = self._spawn(0)
        if returncode != 0:
            raise RuntimeError(f"warm-up call exited {returncode}")

    def _spawn(self, index: int) -> tuple[int, str, int]:
        command, _, path = self.calls[index % len(self.calls)]
        with open(self.stderr_path, "w", encoding="utf-8") as err:
            proc = subprocess.Popen([sys.executable, "-c", CLI_ENTRY, command, path],
                                    stdout=subprocess.PIPE, stderr=err, text=True)
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, stdout, usage.ru_maxrss

    def run_op(self, index: int) -> int:
        returncode, stdout, rss_kb = self._spawn(index)
        self.peak_kb = max(self.peak_kb, rss_kb)
        self.results.append((index % len(self.calls), returncode, stdout))
        if returncode != 0:
            with open(self.stderr_path, encoding="utf-8") as err:
                raise RuntimeError(f"exit code {returncode}: {err.read()[-2000:]}")
        return 1

    def run_in_process(self, index: int) -> int:
        """The same call through ``loopspec.cli.main`` in this process."""
        import contextlib
        import io

        cli = importlib.import_module("loopspec.cli")
        command, _, path = self.calls[index % len(self.calls)]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            returncode = cli.main([command, path])
        self.results.append((index % len(self.calls), returncode, buffer.getvalue()))
        if returncode != 0:
            raise RuntimeError(f"exit code {returncode}")
        return 1

    def peak_rss_kb(self) -> int:
        return self.peak_kb

    def problems(self) -> list[str]:
        refs: dict[int, dict] = {}
        out = []
        for call, returncode, stdout in self.results:
            if returncode != 0:
                continue   # counted as a failed operation
            command, graph, path = self.calls[call]
            if call not in refs:
                refs[call] = checks.spectrum_reference(graph)
            out.extend(f"{os.path.basename(path)}: {p}"
                       for p in checks.check_cli_call(command, returncode, stdout, refs[call]))
        return out

    def close(self) -> None:
        if self.tmp:
            shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {
    "exhaustive-n3-all": ExhaustiveN3,
    "census-n4": CensusN4,
    "sampled-n7-all": SampledN7,
    "cli-cold": CliCold,
}
