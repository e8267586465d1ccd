"""Golden digests of sweep reports and CLI output.

A sweep digest is the SHA-256 of ``json.dumps(report, sort_keys=True)``
with ``wall_time`` removed; a CLI digest is the SHA-256 of the command's
stdout with SOURCE_DATE_EPOCH pinned.  Together they pin the bytes every
refactor of the sweep and of the layers under it must keep.  A change
that moves a digest on purpose updates it here and says in CHANGES.md
which output changed and why.

Every sampled case runs serially and with two worker processes, which
must give the same report.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from loopspec import decomposition, new_digraph, spectral
from loopspec.bounds import all_certificates
from loopspec.cli import main
from loopspec.errors import CounterexampleError, NotRegular
from loopspec.formats import dumps_json
from loopspec.spectral import GraphFacts
from loopspec.sweep import (THEOREM_CHECKS, digraph_from_bits, orbit_classes,
                            random_digraph, sweep)
from test_acceptance import CRITERION_3_CHECKS

CENSUS_CHECKS = ["mcclelland", "rho_lower"]
# The checks whose certificates the batch stage's array pass can decide.
ARRAY5 = ["mcclelland", "rho_lower", "energy_lower_c2", "rho_upper", "power_sums"]
# Seeds of 48 samples at n = 7 where an earlier eigenvalue polish reported
# false trace-identity counterexamples.
N7_SEEDS = [(2 * 100000 + 25) * 48, (10 * 100000 + 15) * 48, (12 * 100000 + 85) * 48]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(report) -> str:
    payload = report.to_json_dict()
    del payload["wall_time"]
    return _digest(json.dumps(payload, sort_keys=True))


@pytest.mark.parametrize("n, expected", [
    (1, "3b049a38724b652c042b452c4f19f95e7e89b5b8df8b24d32f84da144ca5e58e"),
    (2, "0332f2b65f6b7ea138802d19809b3532b9df851f800f03f2f68590ee8f41f30a"),
    (3, "1912afa25018ff1cc91a15609e71a8424c386c1228ffb777956e69fe2b426b6b"),
])
def test_exhaustive_all_checks(n, expected):
    assert report_digest(sweep(n, "all")) == expected


def test_exhaustive_census_n4(census_n4):
    assert report_digest(census_n4) == \
        "7f6306b91b2bd9d2001cf47e530f40fc22099b4a0935ea264931faaaa670c406"


def test_exhaustive_criterion_3_n4():
    assert report_digest(sweep(4, CRITERION_3_CHECKS)) == \
        "1436c5eb038d8dd887953209040d0b5a66533df453812f8fc8d064fdc7e067df"


def test_exhaustive_all_checks_n4():
    assert report_digest(sweep(4, "all")) == \
        "b8ac4048a4f6936b64f70934c7c272b17c4b8adf0c4eb48baf69a3a1e5848225"


def test_exhaustive_array_checks_n1():
    # rho_upper is "na" at n = 1.
    assert report_digest(sweep(1, ARRAY5)) == \
        "e5187a8b764576eba3a25a8d6712da32c118ea615745842576ca0279a9652072"


def test_exhaustive_array_checks_n4_wide_tolerance(monkeypatch):
    # A tolerance of 0.05 puts many graphs inside the widened band.
    monkeypatch.setenv("LOOPSPEC_TOL", "0.05")
    assert report_digest(sweep(4, ARRAY5)) == \
        "a66a7f87eccba6ed0969ef3f995f40594ebb90e282685ecb18db954961de7628"


SAMPLED = [
    ((7, "all"), {"samples": 48, "seed": N7_SEEDS[0]},
     "9a8cbf4fd187b3cc226f827aa8173aa5d930c7d068280a28b50b5655ed42b974"),
    ((7, "all"), {"samples": 48, "seed": N7_SEEDS[1]},
     "b6c941fc9021b91ca74ad815a7eccb89ca47c29c0ce54af4fed3577332763d73"),
    ((7, "all"), {"samples": 48, "seed": N7_SEEDS[2]},
     "fe5043e17f683287fa9dc72e2a1307b2f74812a9c2e1b9c50b7aa9cdd3481fd5"),
    ((4, CENSUS_CHECKS), {"samples": 400, "seed": 3},
     "d71d3a3b03305f9e6fc220a71942d95b609866f24a2d02d995b9b1e34a1241fb"),
    # 45 samples attain rho_lower equality; the census keeps 15 of them,
    # so isomorphic repeats exercise the signature dedupe, also across
    # the two workers' parts.
    ((3, CENSUS_CHECKS), {"samples": 400, "seed": 3},
     "db5914c6c153e94001f1cce22a03da685b98ad1dfd17bb2849444d8a9dad9805"),
    # Unequal arc and loop probabilities pin which draw decides a loop.
    ((5, "all"), {"samples": 40, "seed": 11, "arc_prob": 0.3, "loop_prob": 0.8},
     "d2bd37845b7e7dba56efaf8bcae52b7dac308b0311dbacb48de8de3f64047d47"),
    # From n = 8 on, a bit pattern has 64 or more bits and no longer fits
    # an int64.  At n = 12 the cycle-cover oracle is out of range.
    ((8, "all"), {"samples": 24, "seed": 5},
     "84e7d891dd4537f5669441baac34eeaaad6015b62516b81b83a31e6976304213"),
    ((12, "all"), {"samples": 6, "seed": 5},
     "4af7f39cfe079d0222b8f183662b9393a6d951c7bf122f37e60da85ac2ca2fc5"),
    ((12, ARRAY5), {"samples": 64, "seed": 5},
     "9ffbb4afdca864769ca504aa92eb959789a135cf05eacb886e4b042639c8cda3"),
]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("args, kwargs, expected", SAMPLED)
def test_sampled(args, kwargs, expected, jobs):
    assert report_digest(sweep(*args, jobs=jobs, **kwargs)) == expected


@pytest.fixture
def random7():
    return random_digraph(7, 0.5, 0.5, 45672)


@pytest.fixture
def mcclelland_witness():
    """Directed triangle plus a looped isolated vertex: its McClelland
    equality certificate takes the exact-root route."""
    return new_digraph(4, [(0, 1), (1, 2), (2, 0)], [3])


CLI = {
    ("fig_union", "energy"): "8ad1b6287c3252ab50cb2d76ea3f234c731c7efc130b48cebf58894e34f6e500",
    ("fig_union", "bounds"): "52f7e862686545b0a193f0ec5e14be5fe761f11c3c7f96ce7a3cb7eeb52b364e",
    ("fig_union", "decompose"): "a003cb2a5c2b41a901c93436f632879a3230a34299fa19a298ef43eb4c7ee401",
    ("fig_union", "spectrum"): "c40e607d4bdd789e348d5b465195d4a4a385b385cbf2db6972a92a2105050f14",
    ("random7", "energy"): "12b017796e5e821b6af3a494aa20b8769afa5ad172bfaddf11439aaff4856ffc",
    ("random7", "bounds"): "114e4ca77f4c75779c5880edcbeb5602d5e3f18dd45641086995430e12a1690b",
    ("random7", "decompose"): "46554663d16462616fcd1b8792a4b0dd3441a4e22755cfa73553fe684b9366af",
    ("random7", "spectrum"): "823ef84b9c3d3fb097b6fa8db99aff38cc0e199564a1ad6835eb559186637e3c",
    ("mcclelland_witness", "bounds"):
        "4fd200f0dea064291edc11da98aa55e8d4c460a09ea58b6769b0a5384250bf9e",
}


@pytest.mark.parametrize("graph, command", list(CLI))
def test_cli_stdout(graph, command, request, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    path = tmp_path / "graph.json"
    path.write_text(dumps_json(request.getfixturevalue(graph)))
    assert main([command, str(path)]) == 0
    assert _digest(capsys.readouterr().out) == CLI[graph, command]


def _decisions(n: int) -> str:
    """Every decision the layers take on each class of order n, one line
    per class: certificate flags and witnesses, both implication records,
    the A and B index sets, the trace flags, the positive part and the
    closed-form energy sum, the zero-energy outcome and the status of
    every theorem check."""
    lines = []
    for mask in orbit_classes(n)[0]:
        facts = GraphFacts(digraph_from_bits(n, mask), with_residuals=False)
        trace = spectral.trace_identities(facts)
        try:
            closed = format(spectral.regular_energy_sum(facts), ".12g")
        except NotRegular:
            closed = "na"
        try:
            zero = spectral.zero_energy_check(facts)
        except CounterexampleError as exc:
            zero = str(exc)
        statuses = []
        for name, check in THEOREM_CHECKS.items():
            try:
                statuses.append(check(facts).status)
            except CounterexampleError:
                statuses.append("raised")
        lines.append(json.dumps([
            mask,
            [[c.bound_id, c.holds, c.equality, c.witness]
             for c in all_certificates(facts)],
            decomposition.sufficient_condition(facts).to_json_dict(),
            decomposition.necessary_condition(facts).to_json_dict(),
            [[c.a_indices, c.b_indices] for c in facts.analysis.components],
            [trace.sum_ok, trace.sumsq_ok, trace.re_im_ok],
            format(spectral.energy_positive_part(facts), ".12g"),
            closed, zero, statuses,
        ], sort_keys=True))
    return "\n".join(lines)


@pytest.mark.parametrize("tol, orders, expected", [
    (None, range(1, 5),
     "a9da690b82528b2c030c6b9c900cc79a4072cd8cee9b16e05008bf74956c7180"),
    # A tolerance of 0.05 puts many certificates inside the re-check band.
    ("0.05", range(1, 4),
     "09eeff1b9b790274eaa719e2f11367463ccb197ec3ce940464e8311bf581e06a"),
])
def test_decisions_per_class(tol, orders, expected, monkeypatch):
    if tol is not None:
        monkeypatch.setenv("LOOPSPEC_TOL", tol)
    assert _digest("\n".join(_decisions(n) for n in orders)) == expected
