from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import loopspec
from loopspec import dumps_json, loads, new_digraph, schemas, to_text
from loopspec.cli import main
from loopspec.errors import NoConvergence


@pytest.fixture
def fig_file(tmp_path, fig_union):
    path = tmp_path / "fig.json"
    path.write_text(dumps_json(fig_union))
    return str(path)


@pytest.fixture(autouse=True)
def pinned_clock(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def run(capsys, *argv):
    """Run the CLI; check any JSON it prints against its published schema."""
    code = main(list(argv))
    captured = capsys.readouterr()
    if captured.out and "--table" not in argv:
        printed = json.loads(captured.out)
        if argv[0] in ("generate", "complement"):
            jsonschema.validate(printed, schemas.GRAPH)
        else:
            assert printed["command"] == argv[0]
            jsonschema.validate(printed, schemas.REPORT_ENVELOPE)
            jsonschema.validate(printed["payload"], schemas.PAYLOAD_SCHEMAS[argv[0]])
    return code, captured.out, captured.err


class TestEnergyCommand:
    def test_fig_union(self, capsys, fig_file):
        code, out, _ = run(capsys, "energy", fig_file)
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "energy"
        assert report["input"] == {"n": 5, "m": 5, "sigma": 3, "c2": 2}
        assert abs(report["payload"]["energy"] - 4.3458) < 1e-3

    def test_stdin(self, capsys, monkeypatch, k2_plus):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(to_text(k2_plus)))
        code, out, _ = run(capsys, "energy", "-")
        assert code == 0
        assert abs(json.loads(out)["payload"]["energy"] - 5 ** 0.5) < 1e-9

    def test_table_mode(self, capsys, fig_file):
        code, out, _ = run(capsys, "energy", fig_file, "--table")
        assert code == 0
        assert "payload.energy" in out


class TestSpectrumCommand:
    def test_payload(self, capsys, fig_file):
        code, out, _ = run(capsys, "spectrum", fig_file)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert len(payload["eigenvalues"]) == 5
        assert payload["charpoly"][-1] == 1
        assert all(isinstance(c, int) for c in payload["charpoly"])
        assert abs(payload["rho"] - 1.7549) < 1e-4


class TestBoundsCommand:
    def test_all_hold(self, capsys, fig_file):
        code, out, _ = run(capsys, "bounds", fig_file)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["all_hold"]
        assert len(payload["certificates"]) == 11

    def test_only_filter(self, capsys, fig_file):
        code, out, _ = run(capsys, "bounds", fig_file, "--only", "mcclelland")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert [c["bound_id"] for c in payload["certificates"]] == ["mcclelland"]

    def test_nan_tolerance_exits_with_one_line(self, capsys, monkeypatch, fig_file):
        monkeypatch.setenv("LOOPSPEC_TOL", "nan")
        code, out, err = run(capsys, "bounds", fig_file)
        assert (code, out) == (1, "")
        assert err.startswith("error: LOOPSPEC_TOL") and err.count("\n") == 1

    def test_unknown_bound(self, capsys, fig_file):
        code, _, err = run(capsys, "bounds", fig_file, "--only", "nope")
        assert code == 1
        assert "unknown bound id" in err


class TestSccCommand:
    def test_fig_union(self, capsys, fig_file):
        code, out, _ = run(capsys, "scc", fig_file)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert sorted(len(c) for c in payload["components"]) == [2, 3]
        assert payload["non_cycle_arcs"] == []
        assert payload["is_disjoint_union_of_components"]

    def test_path(self, capsys, tmp_path, path3):
        path = tmp_path / "path.json"
        path.write_text(dumps_json(path3))
        code, out, _ = run(capsys, "scc", str(path))
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["non_cycle_arcs"] == [[0, 1], [1, 2]]
        assert not payload["is_disjoint_union_of_components"]


class TestDecomposeCommand:
    def test_fig_union(self, capsys, fig_file):
        code, out, _ = run(capsys, "decompose", fig_file)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["l"] == 1
        assert abs(payload["total_energy"] - 4.3458) < 1e-3
        assert payload["sufficient_condition"]["implication_ok"]
        assert payload["necessary_condition"]["implication_ok"]


class TestGraphCommands:
    def test_generate_round_trip(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "complete_bipartite",
                           "--a", "3", "--b", "2", "--loops", "0,1,2")
        assert code == 0
        # canonical JSON is a fixed point of parse-then-serialize
        d = loads(out)
        assert json.loads(dumps_json(d)) == json.loads(out)
        assert (d.n, d.m, d.sigma) == (5, 12, 3)

    def test_generate_single_vertex_energy(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generate", "--family", "complete", "--n", "1")
        assert code == 0
        path = tmp_path / "k1.json"
        path.write_text(out)
        code, out, _ = run(capsys, "energy", str(path))
        assert code == 0
        assert json.loads(out)["payload"]["energy"] == 0.0

    def test_generate_multipartite(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "complete_multipartite",
                           "--parts", "2,2", "--loops", "all")
        assert code == 0
        assert loads(out).sigma == 4

    def test_generate_missing_args(self, capsys):
        code, _, err = run(capsys, "generate", "--family", "complete_bipartite")
        assert code == 1

    @pytest.mark.parametrize("args, message", [
        (["--family", "complete"], "complete needs --n"),
        (["--family", "empty"], "empty needs --n"),
        (["--family", "directed_cycle"], "directed_cycle needs --n"),
        (["--family", "complete_multipartite", "--parts", "2,x"],
         "error: --parts takes comma separated integers, not '2,x'"),
        (["--family", "complete", "--n", "3", "--loops", "0,x"],
         "error: --loops takes comma separated integers, not '0,x'"),
    ], ids=["complete", "empty", "directed_cycle", "parts", "loops"])
    def test_generate_usage_errors(self, capsys, args, message):
        assert run(capsys, "generate", *args) == (1, "", message + "\n")

    def test_complement(self, capsys, tmp_path, k2_full):
        path = tmp_path / "full.json"
        path.write_text(dumps_json(k2_full))
        code, out, _ = run(capsys, "complement", str(path))
        assert code == 0
        assert loads(out) == new_digraph(2)


class TestSweepCommand:
    def test_small_sweep(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run(capsys, "sweep", "--n", "2",
                           "--theorems", "mcclelland,trace_identities",
                           "--out", str(out_file))
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["graphs_checked"] == 16
        on_disk = json.loads(out_file.read_text())
        assert on_disk["payload"]["graphs_checked"] == 16

    def test_sampled(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "6", "--samples", "5",
                           "--seed", "3", "--theorems", "perron")
        assert code == 0
        assert json.loads(out)["payload"]["mode"] == "random"

    def test_unknown_theorem(self, capsys):
        code, _, err = run(capsys, "sweep", "--n", "2", "--theorems", "bogus")
        assert code == 1

    def test_exhaustive_n5_needs_opt_in(self, capsys):
        code, _, err = run(capsys, "sweep", "--n", "5", "--theorems", "perron")
        assert code == 1
        assert "--exhaustive" in err

    @pytest.mark.parametrize("opt_in", [[], ["--exhaustive"]], ids=["plain", "exhaustive"])
    def test_exhaustive_past_the_cap_points_to_samples(self, capsys, opt_in):
        # n = 6 gets the cap and the --samples hint, not the n = 5 opt-in
        # advice, which would only lead to the cap.
        code, out, err = run(capsys, "sweep", "--n", "6", "--theorems", "perron", *opt_in)
        assert (code, out) == (1, "")
        assert err == "exhaustive enumeration capped at n = 5; use --samples\n"

    def test_jobs_out_of_range(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        for jobs in (0, (os.cpu_count() or 1) + 1):
            code, out, err = run(capsys, "sweep", "--n", "2", "--jobs", str(jobs))
            assert code == 1
            assert out == ""
            assert "--jobs" in err

    @pytest.mark.parametrize("args, message", [
        (["--n", "2", "--samples", "-1"], "samples must be at least 1, not -1"),
        (["--n", "2", "--samples", "0"], "samples must be at least 1, not 0"),
        (["--n", "-1"], "n must be at least 1, not -1"),
        (["--n", "0", "--samples", "3"], "n must be at least 1, not 0"),
    ], ids=["samples-negative", "samples-zero", "n-negative", "n-zero"])
    def test_bad_sizes(self, capsys, args, message):
        assert run(capsys, "sweep", *args) == (1, "", message + "\n")

    def test_counterexample_exit_code(self, capsys, monkeypatch):
        from loopspec.sweep import CheckOutcome, THEOREM_CHECKS
        monkeypatch.setitem(THEOREM_CHECKS, "synthetic_fail",
                            lambda facts: CheckOutcome("fail", "synthetic"))
        code, out, err = run(capsys, "sweep", "--n", "1",
                             "--theorems", "synthetic_fail")
        assert code == 2
        assert "counterexample" in err

    def test_census_finding_exit_code(self, capsys):
        code, out, err = run(capsys, "sweep", "--n", "4", "--theorems", "mcclelland")
        assert code == 2
        assert len(json.loads(out)["payload"]["census_findings"]) == 1
        assert err.startswith("census finding for mcclelland")


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "energy", "/nonexistent/g.json")
        assert code == 1
        assert "input error" in err

    def test_malformed_graph(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"n\": 2}")
        code, _, err = run(capsys, "energy", str(path))
        assert code == 1

    @pytest.mark.parametrize("text", ['{"n": 2, "arcs": 5, "loops": []}',
                                      '{"n": 2, "arcs": [], "loops": null}'],
                             ids=["arcs-5", "loops-null"])
    def test_arcs_or_loops_not_a_list_in_a_real_process(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        env = dict(os.environ, PYTHONPATH=str(Path(loopspec.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "loopspec.cli", "energy", str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("input error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("where", ["missing/report.json", "."])
    def test_unwritable_out_is_an_output_error(self, capsys, tmp_path, where):
        code, out, err = run(capsys, "sweep", "--n", "1", "--theorems", "perron",
                             "--out", str(tmp_path / where))
        assert (code, out) == (1, "")
        assert err.startswith("output error: ") and "input error" not in err

    def test_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_no_convergence_exit_code(self, capsys, monkeypatch, fig_file):
        import loopspec.cli as cli_mod

        class Boom:
            def __init__(self, d, with_residuals=True):
                raise NoConvergence("synthetic")

        monkeypatch.setattr(cli_mod, "GraphFacts", Boom)
        code, _, err = run(capsys, "energy", fig_file)
        assert code == 3
        assert "converge" in err


class TestClosedStdout:
    def test_broken_pipe_exits_quietly(self, capsys, monkeypatch, fig_file):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["bounds", fig_file])
        assert code == 1
        assert capsys.readouterr().err == ""

    def test_closed_pipe_in_a_real_process(self, fig_file):
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(__import__("loopspec").__file__).parents[1])
        # Block-buffered stdout, the interpreter's default on a pipe, so the
        # unsent bytes also meet the flush at interpreter exit.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "from loopspec.cli import entry_point; entry_point()",
                 "bounds", fig_file],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


class TestColdStart:
    def test_cli_import_loads_no_schema_checker_or_pool(self):
        """Only ``sweep --jobs`` above 1 needs the process pool, and only
        the tests check output against the schemas."""
        src = str(Path(loopspec.__file__).parents[1])
        code = ("import sys; before = set(sys.modules); import loopspec.cli; "
                "print(sorted({'jsonschema', 'concurrent.futures', 'multiprocessing'} "
                "& (set(sys.modules) - before)))")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, fig_file):
        _, first, _ = run(capsys, "bounds", fig_file)
        _, second, _ = run(capsys, "bounds", fig_file)
        assert first == second

    def test_twelve_significant_digits(self, capsys, fig_file):
        _, out, _ = run(capsys, "energy", fig_file)
        energy = json.loads(out)["payload"]["energy"]
        assert energy == float(format(energy, ".12g"))
