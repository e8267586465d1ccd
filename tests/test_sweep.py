from __future__ import annotations

import collections
import itertools

import pytest

import loopspec.sweep as sweep_module
from loopspec import (SizeLimit, complete, decomposition, linalg, new_digraph,
                      spectral)
from loopspec.errors import NoConvergence
from loopspec.bounds import (FAMILY_UNRECOGNIZED, STRUCTURE_UNRECOGNIZED,
                             mcclelland_equality_family,
                             rho_lower_equality_structure)
from loopspec.formats import from_json_dict, to_json_dict
from loopspec.spectral import GraphFacts
from loopspec.sweep import (CheckOutcome, THEOREM_CHECKS, _census_signature,
                            _run_chunk, digraph_from_bits, iterate_all,
                            orbit_classes, random_digraph, resolve_theorems,
                            sweep)
from loopspec.tolerances import equality_tol
from mcclelland_witness import is_triangle_plus_looped_vertex
from test_golden import ARRAY5, N7_SEEDS


class TestIterateAll:
    def test_counts(self):
        assert sum(1 for _ in iterate_all(1)) == 2
        assert sum(1 for _ in iterate_all(2)) == 16
        assert sum(1 for _ in iterate_all(3)) == 512

    def test_distinct(self):
        graphs = list(iterate_all(2))
        assert len(set(graphs)) == 16

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            next(iterate_all(6))

    def test_bit_layout(self):
        # mask 1 sets entry (0, 0): a loop at vertex 0
        assert digraph_from_bits(2, 1) == new_digraph(2, [], [0])
        # bit for entry (0, 1)
        assert digraph_from_bits(2, 2) == new_digraph(2, [(0, 1)], [])


def _orbit(n: int, mask: int) -> set[int]:
    """Every relabeling of the graph with bit mask ``mask``."""
    cells = [divmod(k, n) for k in range(n * n) if mask >> k & 1]
    return {sum(1 << (p[i] * n + p[j]) for i, j in cells)
            for p in itertools.permutations(range(n))}


class TestOrbitClasses:
    def test_class_counts(self):
        # OEIS A000595: loop-digraphs up to relabeling
        for n, count in ((1, 2), (2, 10), (3, 104), (4, 3044)):
            masks, weights = orbit_classes(n)
            assert len(masks) == len(weights) == count
            assert sum(weights) == 1 << (n * n)

    def test_least_mask_and_orbit_size_by_brute_force(self):
        for n in (1, 2, 3):
            orbits = {min(o): len(o) for o in (_orbit(n, m) for m in range(1 << (n * n)))}
            masks, weights = orbit_classes(n)
            assert masks == sorted(orbits)
            assert weights == [orbits[m] for m in masks]

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            orbit_classes(6)


def _walk_reference(n: int, graphs: list, mode: str, params: dict) -> dict:
    """The report of running every check on ``graphs`` one by one, with
    one census entry per signature in walk order."""
    checks = {name: {"pass": 0, "fail": 0, "na": 0} for name in THEOREM_CHECKS}
    census: dict[str, list[dict]] = {}
    for d in graphs:
        facts = GraphFacts(d, with_residuals=False)
        for name, check in THEOREM_CHECKS.items():
            outcome = check(facts)
            checks[name][outcome.status] += 1
            for cert in (c for c in outcome.certificates if c.equality):
                sig = _census_signature(facts)
                entries = census.setdefault(cert.bound_id, [])
                if all(e["signature"] != sig for e in entries):
                    entries.append({"graph": to_json_dict(d), "signature": sig,
                                    "witness": cert.witness})
    findings = []
    for bound_id, gap, reason in (
            ("mcclelland", lambda f: mcclelland_equality_family(f) is None,
             "equality attained outside the published family list"),
            ("rho_lower", lambda f: not rho_lower_equality_structure(f),
             "equality without the symmetric bidegree structure")):
        for entry in census.get(bound_id, ()):
            if gap(GraphFacts(from_json_dict(entry["graph"]))):
                findings.append({"bound_id": bound_id, "graph": entry["graph"],
                                 "reason": reason})
    return {"n": n, "mode": mode, "theorems": list(THEOREM_CHECKS),
            "graphs_checked": len(graphs), "checks": checks,
            "equality_census": census, "counterexamples": [],
            "census_findings": findings, "params": params,
            "wall_time": 0.0}


class TestRandomDigraph:
    def test_deterministic(self):
        a = random_digraph(6, 0.4, 0.6, seed=123)
        b = random_digraph(6, 0.4, 0.6, seed=123)
        assert a == b

    def test_extremes(self):
        assert random_digraph(4, 0.0, 0.0, 7) == new_digraph(4)
        assert random_digraph(3, 1.0, 1.0, 7) == complete(3, [0, 1, 2])

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            random_digraph(3, 1.5, 0.0, 0)


class TestResolveTheorems:
    def test_all(self):
        assert resolve_theorems("all") == list(THEOREM_CHECKS)

    def test_subset(self):
        assert resolve_theorems(["mcclelland", "perron"]) == ["mcclelland", "perron"]

    def test_unknown(self):
        with pytest.raises(ValueError):
            resolve_theorems(["nope"])


class TestSweep:
    def test_n2_mcclelland_census(self):
        report = sweep(2, ["mcclelland"])
        assert report.graphs_checked == 16
        assert report.checks["mcclelland"].failed == 0
        census = report.equality_census["mcclelland"]
        witnesses = sorted(entry["witness"] for entry in census)
        assert witnesses == [
            "family: digon-matching",
            "family: digon-matching-one-loop",
            "family: digon-matching-two-loops",
            "family: isolated-vertices",
            "family: isolated-vertices-all-loops",
            "family: isolated-vertices-half-loops",
        ]
        assert not report.census_findings

    def test_n3_trace_identities(self):
        report = sweep(3, ["trace_identities"])
        assert report.checks["trace_identities"].passed == 512

    def test_n1_all(self):
        report = sweep(1, "all")
        assert report.graphs_checked == 2
        assert report.checks["rho_upper"].na == 2
        assert report.ok

    def test_tallies_partition(self):
        report = sweep(2, "all")
        for tally in report.checks.values():
            assert tally.passed + tally.failed + tally.na == report.graphs_checked

    def test_deterministic_modulo_wall_time(self):
        a = sweep(2, "all").to_json_dict()
        b = sweep(2, "all").to_json_dict()
        a["wall_time"] = b["wall_time"] = 0.0
        assert a == b

    def test_sampled_mode_deterministic(self):
        a = sweep(5, ["trace_identities"], samples=20, seed=9).to_json_dict()
        b = sweep(5, ["trace_identities"], samples=20, seed=9).to_json_dict()
        a["wall_time"] = b["wall_time"] = 0.0
        assert a == b

    def test_sampled_n7_without_false_counterexample(self):
        # The bench's pass 15 of run seed 10.  Its sample drawn with seed
        # 45672 used to fail trace_identities: the QR polish merged two
        # simple eigenvalues.
        report = sweep(7, "all", samples=48, seed=(10 * 100000 + 15) * 48)
        assert report.counterexamples == []
        assert report.graphs_checked == 48

    def test_parallel_matches_serial(self):
        for n in (2, 3):
            serial = sweep(n, "all", jobs=1).to_json_dict()
            parallel = sweep(n, "all", jobs=2).to_json_dict()
            serial["wall_time"] = parallel["wall_time"] = 0.0
            assert serial == parallel

    def test_classes_match_labeled_walk(self):
        for n in (1, 2, 3):
            report = sweep(n, "all").to_json_dict()
            report["wall_time"] = 0.0
            assert report == _walk_reference(n, list(iterate_all(n)), "exhaustive",
                                             {"exhaustive": True})

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_samples_match_seeded_walk(self, jobs):
        report = sweep(5, "all", samples=30, seed=9, jobs=jobs).to_json_dict()
        report["wall_time"] = 0.0
        graphs = [random_digraph(5, 0.5, 0.5, 9 + i) for i in range(30)]
        params = {"exhaustive": False, "samples": 30, "seed": 9,
                  "arc_prob": 0.5, "loop_prob": 0.5}
        assert report == _walk_reference(5, graphs, "random", params)

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -1):
            with pytest.raises(ValueError):
                sweep(2, ["perron"], jobs=jobs)

    def test_exhaustive_size_limit(self):
        with pytest.raises(SizeLimit):
            sweep(6, ["perron"])

    def test_counterexample_aborts(self, monkeypatch):
        calls = []

        def always_fail(facts):
            calls.append(facts.d)
            return CheckOutcome("fail", "synthetic")

        monkeypatch.setitem(THEOREM_CHECKS, "synthetic_fail", always_fail)
        report = sweep(2, ["synthetic_fail"])
        assert report.graphs_checked == 1
        assert len(report.counterexamples) == 1
        assert report.counterexamples[0]["check"] == "synthetic_fail"
        assert not report.ok
        assert len(calls) == 1

    def test_parallel_matches_serial_over_many_parts(self, monkeypatch):
        # Parts of 8 graphs: more parts are in flight than there are
        # workers, and they must still merge in order.
        monkeypatch.setattr(sweep_module, "_PART_CLASSES", 8)
        for kwargs in ({}, {"samples": 100, "seed": 5}):
            serial = sweep(3, "all", jobs=1, **kwargs).to_json_dict()
            parallel = sweep(3, "all", jobs=2, **kwargs).to_json_dict()
            serial["wall_time"] = parallel["wall_time"] = 0.0
            assert serial == parallel

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sampled_counterexample_stops_at_its_sample(self, monkeypatch, jobs):
        # Sample 1 of seed 20 fails.  In parts of 4 samples, two workers
        # check later parts too, but the merge stops at the first.
        monkeypatch.setattr(sweep_module, "_PART_CLASSES", 4)
        target = random_digraph(4, 0.5, 0.5, 21)
        assert random_digraph(4, 0.5, 0.5, 20) != target

        def fail_on_target(facts):
            if facts.d == target:
                return CheckOutcome("fail", "synthetic")
            return CheckOutcome("pass")

        monkeypatch.setitem(THEOREM_CHECKS, "synthetic_fail", fail_on_target)
        report = sweep(4, ["synthetic_fail"], samples=30, seed=20, jobs=jobs)
        payload = report.to_json_dict()
        assert payload["graphs_checked"] == 2
        assert payload["checks"] == {"synthetic_fail": {"pass": 1, "fail": 1, "na": 0}}
        assert payload["counterexamples"] == [
            {"check": "synthetic_fail", "graph": to_json_dict(target), "detail": "synthetic"}]


class TestSharedWork:
    def test_one_exact_charpoly_spectrum_and_analysis_per_matrix(self, monkeypatch):
        # A strongly connected graph whose arcs all lie on cycles is its
        # own component and its own pruned form, so all checks together
        # need one exact charpoly, one analysis, and the spectra of the
        # graph and of its complement, built once.  Every matrix goes
        # through a batch kernel: the chunk's stacks, and the stack of one
        # of each lazy call.  The exact roots, too, are found once.
        matrices = collections.Counter()

        def counted(name, fn, per_call=None):
            def wrapper(*args, **kwargs):
                matrices[name] += per_call or len(args[0])
                return fn(*args, **kwargs)
            return wrapper

        for module, attr, name, per_call in (
                (linalg, "_char_polys", "charpolys", None),
                (linalg, "_spectra", "spectra", None),
                (linalg, "poly_roots_many", "roots", None),
                (sweep_module, "poly_roots_many", "roots", None),
                (decomposition, "analyze", "analyze", 1),
                (spectral, "complement", "complement", 1),
                (sweep_module, "complement", "complement", 1)):
            monkeypatch.setattr(module, attr, counted(name, getattr(module, attr), per_call))
        arcs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (3, 1)]
        loops = [0, 3]
        mask = sum(1 << (5 * i + j) for i, j in arcs + [(v, v) for v in loops])
        assert digraph_from_bits(5, mask) == new_digraph(5, arcs, loops)
        report = _run_chunk((5, [mask], [1], resolve_theorems("all")))
        assert report.counterexamples == []
        assert report.checks["sufficient_condition"].na == 1   # one component
        assert matrices == {"charpolys": 1, "spectra": 2, "roots": 1, "analyze": 1,
                            "complement": 2}

    def test_batch_fills_spectra_and_exact_roots_only_when_read(self, monkeypatch):
        # Two graphs in one chunk: their spectra come from one stacked
        # call, and the exact charpolys and roots only with oracle_roots,
        # or on a graph whose certificate check the arrays leave open.
        # A loop with an arc (0b0011) clears every such bound, so in the
        # census it gets no charpoly; the loopless digon (0b0110) attains
        # every one.
        stacks = collections.Counter()

        def counted(name):
            real = getattr(sweep_module, name)

            def wrapper(mats, **kwargs):
                stacks[name, len(mats)] += 1
                return real(mats, **kwargs)
            monkeypatch.setattr(sweep_module, name, wrapper)

        for name in ("eigenvalues_many", "char_poly_exact_many", "poly_roots_many"):
            counted(name)
        masks = [0b0011, 0b0110]

        def batch(theorems, n=2):
            return [(sorted(decided), sorted(known)) for decided, known
                    in sweep_module._batch_facts(n, masks, theorems)]

        assert batch(["mcclelland", "rho_lower"]) == [
            (["mcclelland", "rho_lower"], ["spectrum"]),
            ([], ["charpoly", "spectrum", "verified_spectrum"])]
        assert stacks == {("eigenvalues_many", 2): 1, ("char_poly_exact_many", 1): 1,
                          ("poly_roots_many", 1): 1}
        stacks.clear()
        assert batch(["charpoly_invariance"]) == [([], ["charpoly", "spectrum"])] * 2
        assert stacks == {("eigenvalues_many", 2): 1, ("char_poly_exact_many", 2): 1}
        stacks.clear()
        everything = list(sweep_module._batch_facts(2, masks, resolve_theorems("all")))
        assert [sorted(decided) for decided, _ in everything] == [
            ["energy_lower_c2", "mcclelland", "power_sums", "rho_lower", "rho_upper"], []]
        assert all(sorted(known) == ["charpoly", "spectrum", "verified_spectrum"]
                   for _, known in everything)
        assert stacks == {("eigenvalues_many", 2): 1, ("char_poly_exact_many", 2): 1,
                          ("poly_roots_many", 2): 1}
        # oracle_charpoly reads the charpoly only where it can enumerate.
        assert [batch(["oracle_charpoly"], n) for n in (8, 9)] == [
            [([], ["charpoly", "spectrum"])] * 2, [([], ["spectrum"])] * 2]
        for mask, (_, known) in zip(masks, everything):
            facts = GraphFacts(digraph_from_bits(2, mask))
            assert known == {"spectrum": facts.spectrum, "charpoly": facts.charpoly,
                             "verified_spectrum": facts.verified_spectrum}

    def test_batch_read_sets_are_the_checks_that_read_every_graph(self):
        # Run each check alone over the n = 3 classes on fresh facts: the
        # fields it left cached on every graph are the ones it read.
        graphs = [digraph_from_bits(3, mask) for mask in orbit_classes(3)[0]]
        cached = {}
        for name, check in THEOREM_CHECKS.items():
            cached[name] = {"charpoly", "verified_spectrum"}
            for d in graphs:
                facts = GraphFacts(d)
                check(facts)
                cached[name] &= vars(facts).keys()
        assert {name for name, fields in cached.items()
                if "charpoly" in fields} == sweep_module._READ_CHARPOLY
        assert {name for name, fields in cached.items()
                if "verified_spectrum" in fields} == sweep_module._READ_ROOTS

    def test_adjacency_stack_past_64_bits(self):
        # At n = 9 a bit pattern has 81 bits.
        masks = [0, (1 << 81) - 1, sum(1 << (9 * i + (i + 1) % 9) for i in range(9)) | 1 << 80]
        stack = sweep_module._adjacency_stack(9, masks)
        assert stack.shape == (3, 9, 9)
        for mask, matrix in zip(masks, stack):
            assert matrix.tolist() == linalg.adjacency(digraph_from_bits(9, mask)).tolist()


class TestArrayPass:
    @pytest.mark.parametrize("tol", [None, "0.05"])
    def test_decided_checks_are_clear_scalar_passes(self, tol, monkeypatch):
        # Every (graph, check) pair the arrays decide passes the scalar
        # check, with every certificate outside the 10 x tol re-check band.
        if tol is not None:
            monkeypatch.setenv("LOOPSPEC_TOL", tol)
        band = 10 * equality_tol()
        stacks = [(n, orbit_classes(n)[0]) for n in range(1, 5)]
        stacks += [(7, [sweep_module._sample_mask(7, 0.5, 0.5, seed + i) for i in range(48)])
                   for seed in N7_SEEDS]
        decided_pairs = open_pairs = 0
        for n, masks in stacks:
            for mask, (decided, _) in zip(masks, sweep_module._batch_facts(n, masks, ARRAY5)):
                assert n > 1 or "rho_upper" not in decided
                decided_pairs += len(decided)
                open_pairs += len(ARRAY5) - len(decided)
                facts = GraphFacts(digraph_from_bits(n, mask))
                for name in decided:
                    outcome = THEOREM_CHECKS[name](facts)
                    assert outcome.status == "pass"
                    assert all(abs(c.slack) > band * max(1.0, abs(c.rhs))
                               for c in outcome.certificates)
        assert decided_pairs > 0 and open_pairs > 0

    def test_decided_checks_keep_the_check_order(self, monkeypatch):
        # trace_identities fails on one n = 3 class whose array checks are
        # all decided, between two of them and two more: the chunk runner
        # tallies and stops as the per-graph walk with nothing decided and
        # nothing preset does.
        masks, weights = orbit_classes(3)
        theorems = ["mcclelland", "rho_lower", "trace_identities", "power_sums", "rho_upper"]
        target = next(mask for mask, (decided, _) in
                      zip(masks, sweep_module._batch_facts(3, masks, theorems))
                      if mask > masks[len(masks) // 2] and len(decided) == 4)
        real = THEOREM_CHECKS["trace_identities"]
        monkeypatch.setitem(THEOREM_CHECKS, "trace_identities", lambda facts: (
            CheckOutcome("fail", "synthetic")
            if facts.d == digraph_from_bits(3, target) else real(facts)))
        chunk = _run_chunk((3, masks, weights, theorems)).to_json_dict()
        walk = sweep_module._new_report(3, "", theorems, {})
        for mask, weight in zip(masks, weights):
            if not sweep_module._check_graph(walk, mask, theorems, weight, {}, frozenset()):
                break
        assert chunk == walk.to_json_dict()
        assert chunk["counterexamples"][0]["graph"] == to_json_dict(digraph_from_bits(3, target))
        checked = chunk["graphs_checked"]
        assert chunk["checks"]["rho_lower"]["pass"] == checked
        assert chunk["checks"]["power_sums"]["pass"] < checked


class TestFailureIsolation:
    """One graph's exact roots fail their residual check, in a chunk whose
    roots are computed together: the failure waits for that graph's own
    oracle_roots check, as it did when every graph computed its own."""

    N, SEED, SAMPLES = 5, 40, 12
    BAD = 6   # in the second part of 4 samples, after sample 5

    def sample(self, i):
        return random_digraph(self.N, 0.5, 0.5, self.SEED + i)

    @pytest.fixture(autouse=True)
    def parts_of_four(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "_PART_CLASSES", 4)

    def fail_bad_roots(self, monkeypatch):
        bad = GraphFacts(self.sample(self.BAD)).charpoly
        assert [GraphFacts(self.sample(i)).charpoly
                for i in range(self.SAMPLES)].count(bad) == 1
        real = linalg._checked_roots

        def checked(p, roots):
            return NoConvergence("synthetic residual failure") if p == bad else real(p, roots)

        monkeypatch.setattr(linalg, "_checked_roots", checked)

    def run(self, theorems, jobs):
        report = sweep(self.N, theorems, samples=self.SAMPLES, seed=self.SEED, jobs=jobs)
        payload = report.to_json_dict()
        del payload["wall_time"]
        return payload

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_earlier_counterexample_keeps_the_report(self, monkeypatch, jobs):
        target = self.sample(self.BAD - 1)
        monkeypatch.setitem(THEOREM_CHECKS, "synthetic_fail", lambda facts: CheckOutcome(
            "fail" if facts.d == target else "pass", "synthetic"))
        theorems = ["synthetic_fail", "oracle_roots"]
        expected = self.run(theorems, jobs)
        assert expected["graphs_checked"] == self.BAD
        assert expected["counterexamples"][0]["graph"] == to_json_dict(target)
        self.fail_bad_roots(monkeypatch)
        assert self.run(theorems, jobs) == expected

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_surfaces_at_its_graph(self, monkeypatch, jobs):
        seen = []

        def recorder(facts):
            seen.append(facts.d)
            return CheckOutcome("pass")

        monkeypatch.setitem(THEOREM_CHECKS, "recorder", recorder)
        self.fail_bad_roots(monkeypatch)
        with pytest.raises(NoConvergence, match="synthetic residual failure"):
            self.run(["recorder", "oracle_roots"], jobs)
        if jobs == 1:   # a worker's record stays in its own process
            assert seen == [self.sample(i) for i in range(self.BAD + 1)]


class TestCensusFindings:
    def test_none_below_order_four(self):
        report = sweep(3, ["mcclelland", "rho_lower"])
        assert report.census_findings == []

    def test_directed_triangle_plus_looped_vertex_found(self, census_n4):
        # The one known gap in the published McClelland equality family
        # list: a directed triangle with a looped isolated vertex attains
        # the bound exactly (E = 3 = sqrt(9)) yet is none of the families.
        report = census_n4
        assert report.checks["mcclelland"].failed == 0  # the bound itself holds
        assert len(report.census_findings) == 1
        finding = report.census_findings[0]
        assert finding["bound_id"] == "mcclelland"
        assert is_triangle_plus_looped_vertex(finding["graph"])
        assert not report.ok

    def test_witness_records_the_structural_verdict(self, census_n4):
        # census_findings reads the verdict from each entry's witness.
        report = census_n4
        for bound_id, gap, unrecognized in (
                ("mcclelland",
                 lambda f: mcclelland_equality_family(f) is None,
                 FAMILY_UNRECOGNIZED),
                ("rho_lower",
                 lambda f: not rho_lower_equality_structure(f),
                 STRUCTURE_UNRECOGNIZED)):
            masks, _, witnesses = report.census_entries[bound_id]
            assert masks
            for mask, witness in zip(masks, witnesses):
                facts = GraphFacts(digraph_from_bits(4, mask))
                assert gap(facts) == (witness == unrecognized)
