"""Each output check passes on a correct output and goes red on a perturbed one.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import importlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

WITNESS = {"n": 4, "arcs": [[0, 1], [1, 3], [3, 0]], "loops": [2]}


def graph_of_code(code: int, n: int = checks.CENSUS_N) -> dict:
    a = checks.matrices_from_masks(n, np.array([code], dtype=np.int64))[0]
    return {"n": n, "arcs": [[u, v] for u in range(n) for v in range(n) if u != v and a[u, v]],
            "loops": [v for v in range(n) if a[v, v]]}


# ---------------------------------------------------------------------------
# Exhaustive and sampled sweeps

@pytest.fixture(scope="module")
def n3_report() -> dict:
    sweep = importlib.import_module("loopspec.sweep")
    return sweep.sweep(3, "all").to_json_dict()


def test_gate_counts_at_n3():
    assert checks.exhaustive_reference(3) == {"graphs": 512, "na": {
        "loop_shift": 448, "regular_complement_spectrum": 498, "regular_energy_sum": 498,
        "sufficient_condition": 236, "necessary_condition": 236}}


def test_exhaustive_passes(n3_report):
    assert checks.check_exhaustive(n3_report, checks.exhaustive_reference(3)) == []


@pytest.mark.parametrize("perturb", [
    lambda r: r["checks"]["mcclelland"].update({"pass": 511}),
    lambda r: r["checks"]["loop_shift"].update({"pass": 65, "na": 447}),
    lambda r: r["checks"]["perron"].update({"pass": 511, "fail": 1}),
    lambda r: r["checks"]["trace_identities"].update({"pass": 511, "na": 1}),
    lambda r: r.update({"graphs_checked": 511}),
    lambda r: r["checks"].pop("oracle_charpoly"),
    lambda r: r["counterexamples"].append({"check": "perron"}),
], ids=["tally", "gate", "fail", "na", "graphs", "missing-check", "counterexample"])
def test_exhaustive_red(n3_report, perturb):
    bad = copy.deepcopy(n3_report)
    perturb(bad)
    assert checks.check_exhaustive(bad, checks.exhaustive_reference(3))


def test_sampled_passes_and_goes_red():
    sweep = importlib.import_module("loopspec.sweep")
    report = sweep.sweep(5, "all", samples=3, seed=11).to_json_dict()
    assert checks.check_sampled(report, 3) == []
    report["checks"]["oracle_roots"]["pass"] += 1
    assert checks.check_sampled(report, 3)


# ---------------------------------------------------------------------------
# The n = 4 census

@pytest.fixture(scope="module")
def census_ref() -> dict:
    return checks.census_reference()


@pytest.fixture(scope="module")
def census_report(census_ref) -> dict:
    """A correct report built from the reference: one entry per tight
    McClelland class and per tight rho-lower signature, and the witness."""
    rho_entries, seen = [], set()
    for code in sorted(census_ref["rho_lower"]):
        graph = graph_of_code(code)
        a = checks.adjacency(graph)
        sig = checks.degree_signature(a, checks._principal_minor_charpolys(a[None])[0])
        if sig not in seen:
            seen.add(sig)
            rho_entries.append({"graph": graph})
    total = 1 << 16
    return {
        "graphs_checked": total,
        "checks": {name: {"pass": total, "fail": 0, "na": 0} for name in checks.CENSUS_CHECKS},
        "equality_census": {
            "mcclelland": [{"graph": graph_of_code(c)} for c in sorted(census_ref["mcclelland"])],
            "rho_lower": rho_entries,
        },
        "counterexamples": [],
        "census_findings": [{"bound_id": "mcclelland", "graph": WITNESS}],
    }


def test_census_reference_sizes(census_ref):
    assert census_ref["classes"] == 3044
    assert len(census_ref["mcclelland"]) == 7
    assert int(checks.canonical_codes(checks.adjacency(WITNESS)[None])[0]) in census_ref["mcclelland"]


def test_census_passes(census_report, census_ref):
    assert checks.check_census(census_report, census_ref) == []


COMPLETE = {"n": 4, "arcs": [[u, v] for u in range(4) for v in range(4) if u != v], "loops": [0]}


@pytest.mark.parametrize("perturb", [
    lambda r: r["equality_census"]["mcclelland"].append({"graph": COMPLETE}),
    lambda r: r["equality_census"]["mcclelland"].pop(),
    lambda r: r["equality_census"]["mcclelland"].append(
        copy.deepcopy(r["equality_census"]["mcclelland"][0])),
    lambda r: r["equality_census"]["rho_lower"].append({"graph": COMPLETE}),
    lambda r: r["equality_census"]["rho_lower"].pop(0),
    lambda r: r.update({"census_findings": []}),
    lambda r: r["census_findings"][0].update({"graph": COMPLETE}),
    lambda r: r["census_findings"].append({"bound_id": "rho_lower", "graph": WITNESS}),
    lambda r: r["checks"]["rho_lower"].update({"pass": (1 << 16) - 1}),
], ids=["mcc-extra", "mcc-missing", "mcc-repeat", "rho-extra", "rho-missing",
        "no-witness", "wrong-witness", "extra-finding", "tally"])
def test_census_red(census_report, census_ref, perturb):
    bad = copy.deepcopy(census_report)
    perturb(bad)
    assert checks.check_census(bad, census_ref)


def test_witness_predicate():
    assert checks.is_triangle_plus_looped_vertex(WITNESS)
    assert checks.is_triangle_plus_looped_vertex(
        {"n": 4, "arcs": [[1, 0], [2, 1], [0, 2]], "loops": [3]})
    assert not checks.is_triangle_plus_looped_vertex(
        {"n": 4, "arcs": [[0, 1], [1, 0], [1, 3]], "loops": [2]})
    assert not checks.is_triangle_plus_looped_vertex({**WITNESS, "loops": [0]})


# ---------------------------------------------------------------------------
# CLI calls

def cli_output(command: str, graph: dict, tmp_path: Path) -> str:
    cli = importlib.import_module("loopspec.cli")
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main([command, str(path)]) == 0
    return buffer.getvalue()


# A defective eigenvalue (the nilpotent path), the census witness, and two
# strong components with different loop ratios.
GRAPHS = [
    {"n": 3, "arcs": [[0, 1], [1, 2]], "loops": []},
    WITNESS,
    {"n": 5, "arcs": [[0, 1], [1, 0], [2, 3], [3, 4], [4, 2], [1, 2]], "loops": [0, 3]},
]


def _shift_energy(env):
    env["payload"]["energy"] += 1e-6


def _shift_total(env):
    env["payload"]["total_energy"] += 1e-6


def _shift_parts(env):
    env["payload"]["sum_component_energy"] += 1e-6


def _shift_eigenvalue(env):
    env["payload"]["eigenvalues"][0][0] += 1e-6


def _shift_charpoly(env):
    env["payload"]["charpoly"][0] += 1


def _shift_rhs(env):
    next(c for c in env["payload"]["certificates"]
         if c["bound_id"] == "mcclelland")["rhs"] += 1e-6


def _unhold(env):
    env["payload"]["all_hold"] = False


def _shift_input(env):
    env["input"]["c2"] += 2


@pytest.mark.parametrize("graph", GRAPHS, ids=["path", "witness", "two-components"])
@pytest.mark.parametrize("command, perturbations", [
    ("energy", [_shift_energy, _shift_input]),
    ("decompose", [_shift_total, _shift_parts]),
    ("spectrum", [_shift_eigenvalue, _shift_charpoly]),
    ("bounds", [_shift_rhs, _unhold]),
])
def test_cli_checks(graph, command, perturbations, tmp_path):
    ref = checks.spectrum_reference(graph)
    out = cli_output(command, graph, tmp_path)
    assert checks.check_cli_call(command, 0, out, ref) == []
    assert checks.check_cli_call(command, 1, out, ref)
    assert checks.check_cli_call(command, 0, out + out, ref)
    for perturb in perturbations:
        env = json.loads(out)
        perturb(env)
        assert checks.check_cli_call(command, 0, json.dumps(env), ref), perturb.__name__


def test_cli_pool_is_seeded():
    assert workloads.cli_pool(3) == workloads.cli_pool(3)
    assert workloads.cli_pool(3) != workloads.cli_pool(4)
    sizes = {graph["n"] for seed in range(20) for _, graph in workloads.cli_pool(seed)}
    assert sizes == set(range(2, 9))
