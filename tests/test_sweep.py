from __future__ import annotations

import collections
import hashlib
import itertools
import json

import pytest

import loopspec.sweep as sweep_module
from loopspec import (SizeLimit, bounds, complete, decomposition, linalg, new_digraph,
                      spectral)
from loopspec.errors import CounterexampleError, NoConvergence
from loopspec.bounds import (FAMILY_UNRECOGNIZED, STRUCTURE_UNRECOGNIZED,
                             mcclelland_equality_family,
                             rho_lower_equality_structure)
from loopspec.formats import from_json_dict, to_json_dict
from loopspec.spectral import GraphFacts
from loopspec.sweep import (CheckOutcome, THEOREM_CHECKS, _census_signature,
                            _run_chunk, digraph_from_bits,
                            orbit_classes, random_digraph, resolve_theorems,
                            sweep)
from loopspec.tolerances import equality_tol
from digraph_helpers import iterate_all
from mcclelland_witness import is_triangle_plus_looped_vertex
from test_acceptance import CRITERION_3_CHECKS
from test_golden import ARRAY5, N7_SEEDS


class TestIterateAll:
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

    def test_order_zero_and_negative_orders(self):
        assert orbit_classes(0) == ([0], [1])
        for n in (-1, -7):
            with pytest.raises(ValueError, match="n must be at least 0"):
                orbit_classes(n)

    @pytest.mark.parametrize("n, count, digest", [
        (4, 3044, "a9f4ec3514cc073054f26e8f0cbcd41d8c557ed11f36bd20547221aeb0080466"),
        (5, 291968, "899b54329859bc962f32b4ff5f4b53902339769b9fa1b40f7403aace338b7c2a"),
    ])
    def test_class_list_digests(self, n, count, digest):
        # The digests of the lists that a sweep over all 2**(n*n) masks,
        # relabeling each, gave before the one-vertex extension.
        masks, weights = orbit_classes(n)
        assert len(masks) == count and sum(weights) == 1 << (n * n)
        assert hashlib.sha256(json.dumps((masks, weights)).encode()).hexdigest() == digest

    def test_returned_lists_are_fresh(self):
        masks, weights = orbit_classes(3)
        expected = (list(masks), list(weights))
        masks.append(-1)
        weights[0] = 0
        masks.reverse()
        assert orbit_classes(3) == expected


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


def _every_graph_its_own_key(monkeypatch) -> None:
    """Patch the batch stage so that no field is keyed by the charpoly."""
    monkeypatch.setattr(sweep_module, "_PRESETS", {
        field: (readers, recheck, source, None, kernel)
        for field, (readers, recheck, source, _, kernel) in sweep_module._PRESETS.items()})


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
        # Three graphs in one chunk.  The spectra come only when a selected
        # check reads them on every graph.  Up to n = 5 they are keyed by
        # the exact charpoly: one stacked charpoly call, then one stacked
        # QR call on the first graph of each charpoly, unless a selected
        # check tests every graph's own QR values.  A loop with an arc
        # (0b0011) and its transpose (0b0101) share x^2 - x; the loopless
        # digon (0b0110) has x^2 - 1.  The exact roots come only with
        # oracle_roots, or on a graph whose certificate check the arrays
        # leave open, once per charpoly.  The complements' spectra come
        # from one more stacked call exactly when a selected check reads
        # them on every graph, and so do the cycle-cover charpolys.  A loop
        # with an arc clears every such bound, so in the census it gets no
        # roots and is left out, to be tallied in bulk; the digon attains
        # every one.
        stacks = collections.Counter()

        def counted(name):
            real = getattr(sweep_module, name)

            def wrapper(mats, **kwargs):
                stacks[name, len(mats)] += 1
                return real(mats, **kwargs)
            monkeypatch.setattr(sweep_module, name, wrapper)

        for name in ("eigenvalues_many", "char_poly_exact_many", "poly_roots_many",
                     "linear_subdigraph_charpoly_many"):
            counted(name)
        masks = [0b0011, 0b0110, 0b0101]

        def batch(theorems, n=2):
            rows = [None] * len(masks)   # None: left out, every selected check passes
            for i, decided, known in sweep_module._batch_facts(n, masks, theorems):
                rows[i] = (sorted(decided), sorted(known))
            return rows

        assert batch(["mcclelland", "rho_lower"]) == [
            None, ([], ["charpoly", "spectrum", "verified_spectrum"]), None]
        assert stacks == {("char_poly_exact_many", 3): 1, ("eigenvalues_many", 2): 1,
                          ("poly_roots_many", 1): 1}
        stacks.clear()
        assert batch(["zero_energy"]) == [([], ["charpoly", "spectrum"])] * 3
        assert stacks == {("char_poly_exact_many", 3): 1, ("eigenvalues_many", 2): 1}
        stacks.clear()
        # The stack's keys carry over to the next stack of the chunk.
        with monkeypatch.context() as patched:
            patched.setattr(sweep_module, "_STACK", 1)
            batch(["zero_energy"])
            assert stacks == {("char_poly_exact_many", 1): 3, ("eigenvalues_many", 1): 2}
        stacks.clear()
        # A check that reads no spectrum builds no spectrum stack.
        assert batch(["charpoly_invariance"]) == [([], ["charpoly"])] * 3
        assert stacks == {("char_poly_exact_many", 3): 1}
        stacks.clear()
        # A check of every graph's own QR values turns the spectra's key off.
        assert batch(["trace_identities"]) == [([], ["spectrum"])] * 3
        assert stacks == {("eigenvalues_many", 3): 1}
        stacks.clear()
        assert batch(["oracle_roots"]) == [
            ([], ["charpoly", "spectrum", "verified_spectrum"])] * 3
        assert stacks == {("eigenvalues_many", 3): 1, ("char_poly_exact_many", 3): 1,
                          ("poly_roots_many", 2): 1}
        stacks.clear()
        for name in ("complement_rho_sum", "complement_energy_sum"):
            assert batch([name]) == [([], ["charpoly", "complement_spectrum", "spectrum"])] * 3
            assert stacks == {("char_poly_exact_many", 3): 1, ("eigenvalues_many", 2): 1,
                              ("eigenvalues_many", 3): 1}
            stacks.clear()
        # The regular-complement checks read spectra of regular graphs
        # only: alone they build no stack.
        for name in ("regular_complement_spectrum", "regular_energy_sum"):
            assert batch([name]) == [([], [])] * 3
            assert stacks == {}
        everything = list(sweep_module._batch_facts(2, masks, resolve_theorems("all")))
        assert [i for i, _, _ in everything] == [0, 1, 2]
        assert [sorted(decided) for _, decided, _ in everything] == [
            ["energy_lower_c2", "mcclelland", "power_sums", "rho_lower", "rho_upper"], [],
            ["energy_lower_c2", "mcclelland", "power_sums", "rho_lower", "rho_upper"]]
        assert all(sorted(known) == ["charpoly", "complement_spectrum", "cycle_cover_charpoly",
                                     "spectrum", "verified_spectrum"]
                   for _, _, known in everything)
        # The spectra are each graph's own; the roots are keyed all the same.
        assert stacks == {("eigenvalues_many", 3): 2, ("char_poly_exact_many", 3): 1,
                          ("poly_roots_many", 2): 1, ("linear_subdigraph_charpoly_many", 3): 1}
        assert everything[2][2]["verified_spectrum"] is everything[0][2]["verified_spectrum"]
        stacks.clear()

        def cover_calls():   # stack size -> calls of the cycle-cover kernel
            return {size: count for (name, size), count in stacks.items()
                    if name == "linear_subdigraph_charpoly_many"}

        # oracle_charpoly reads the charpoly and the cycle covers only where
        # it can enumerate: one cycle-cover call per stack at n = 8, none at
        # n = 9, and none for any other check.
        assert [batch(["oracle_charpoly"], n) for n in (8, 9)] == [
            [([], ["charpoly", "cycle_cover_charpoly"])] * 3, [([], [])] * 3]
        assert cover_calls() == {3: 1}
        stacks.clear()
        for name in THEOREM_CHECKS:
            if name != "oracle_charpoly":
                batch([name], 8)
        assert cover_calls() == {}
        with monkeypatch.context() as patched:
            patched.setattr(sweep_module, "_STACK", 1)
            batch(["oracle_charpoly"], 8)
            assert cover_calls() == {1: 3}
        for mask, (_, _, known) in zip(masks, everything):
            facts = GraphFacts(digraph_from_bits(2, mask))
            assert known == {"spectrum": facts.spectrum, "charpoly": facts.charpoly,
                             "verified_spectrum": facts.verified_spectrum,
                             "cycle_cover_charpoly": facts.cycle_cover_charpoly,
                             "complement_spectrum": facts.complement_facts.spectrum}
            lone = linalg.eigenvalues(linalg.adjacency(facts.complement_digraph),
                                      with_residuals=False)
            assert repr(known["complement_spectrum"]) == repr(lone)
        # The cycle-cover preset is the lazy field, on seeded n = 8 graphs.
        dense = [sweep_module._sample_mask(8, 0.5, 0.5, seed) for seed in range(4)]
        for mask, (_, _, known) in zip(dense, sweep_module._batch_facts(8, dense,
                                                                         ["oracle_charpoly"])):
            lazy = GraphFacts(digraph_from_bits(8, mask)).cycle_cover_charpoly
            assert known["cycle_cover_charpoly"] == lazy

    def test_batch_read_sets_are_the_checks_that_read_every_graph(self):
        # Run each check alone over the n = 3 classes on fresh facts: the
        # fields it left cached on every graph are the ones it read, and a
        # field that an array-decided certificate check left on some
        # graphs only is one its exact-root re-check reads.  A field cached
        # on a graph comes with the field its kernel reads.  The
        # complement's spectrum counts as the field "complement_spectrum".
        graphs = [digraph_from_bits(3, mask) for mask in orbit_classes(3)[0]]
        presets = sweep_module._PRESETS
        cached = {}
        rechecked = set()
        for name, check in THEOREM_CHECKS.items():
            cached[name] = set(presets)
            seen = set()
            for d in graphs:
                facts = GraphFacts(d)
                check(facts)
                comp = vars(facts).get("complement_facts")
                fields = presets.keys() & (vars(facts).keys() | (
                    {"complement_spectrum"} if comp and "spectrum" in vars(comp) else set()))
                cached[name] &= fields
                seen |= fields
                assert all(presets[field][2] in fields for field in fields
                           if presets[field][2] is not None)
            if name in ARRAY5:
                rechecked |= seen - cached[name]
        readers = {field: {name for name, fields in cached.items() if field in fields}
                   for field in presets}
        assert {field: row[0] for field, row in presets.items()} == readers
        assert readers == {
            "charpoly": {"charpoly_invariance", "oracle_charpoly", "oracle_roots"},
            "spectrum": set(THEOREM_CHECKS) - {
                "charpoly_invariance", "complement_involution", "oracle_charpoly",
                "loop_shift", "regular_complement_spectrum", "regular_energy_sum"},
            "complement_spectrum": {"complement_rho_sum", "complement_energy_sum"},
            "cycle_cover_charpoly": {"oracle_charpoly"},
            "verified_spectrum": {"oracle_roots"}}
        assert len(readers["spectrum"]) == 16
        assert {field for field, row in presets.items() if row[1]} == rechecked
        assert {field: row[2] for field, row in presets.items() if row[2]} == {
            "verified_spectrum": "charpoly"}
        # Only the functions of the charpoly have checks of each graph's own value.
        assert {field: row[3] for field, row in presets.items() if row[3] is not None} == {
            "spectrum": {"oracle_roots", "trace_identities"}, "verified_spectrum": set()}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("theorems", [["mcclelland", "rho_lower"], ARRAY5,
                                          CRITERION_3_CHECKS, "all"],
                             ids=["census", "array5", "criterion3", "all"])
    def test_keyed_reports_equal_per_graph_reports(self, n, theorems, monkeypatch):
        # Serially and with two workers, the keyed stage gives the bytes of
        # a stage where every graph is its own key.
        def payload(jobs):
            report = sweep(n, theorems, jobs=jobs).to_json_dict()
            del report["wall_time"]
            return json.dumps(report, sort_keys=True)

        keyed = [payload(1), payload(2)]
        _every_graph_its_own_key(monkeypatch)
        assert keyed == [payload(1)] * 2

    @pytest.mark.parametrize("own", ["oracle_roots", "trace_identities"])
    def test_own_qr_checks_get_each_graphs_own_spectrum(self, own):
        # Next to the census checks, which alone would share the spectra of
        # equal charpolys, every graph's preset is its own row of the
        # stacked QR call.
        masks = orbit_classes(3)[0]
        lone = linalg.eigenvalues_many(sweep_module._adjacency_stack(3, masks),
                                       with_residuals=False)
        batch = sweep_module._batch_facts(3, masks, ["mcclelland", "rho_lower", own])
        assert [repr(known["spectrum"]) for _, _, known in batch] == [repr(s) for s in lone]

    def test_keyed_spectrum_is_the_first_graph_of_its_charpoly(self):
        # Without those checks each n = 3 class gets the QR values of the
        # least class with its charpoly, the same object for all of them.
        # perron, which the arrays do not decide, keeps every class in.
        masks = orbit_classes(3)[0]
        lone = linalg.eigenvalues_many(sweep_module._adjacency_stack(3, masks),
                                       with_residuals=False)
        first = {}   # charpoly -> its least class's index and preset spectrum
        batch = list(sweep_module._batch_facts(3, masks, ARRAY5 + ["perron"]))
        assert [i for i, _, _ in batch] == list(range(len(masks)))
        for i, _, known in batch:
            j, spectrum = first.setdefault(known["charpoly"], (i, known["spectrum"]))
            assert known["spectrum"] is spectrum
            assert repr(spectrum) == repr(lone[j])
        assert len(first) == 32

    def test_a_keys_failed_spectrum_leaves_all_its_graphs(self, monkeypatch):
        # The QR call fails on the first graph of x^2 - x: neither graph of
        # that charpoly gets a spectrum, and the key is not tried again.
        calls = []
        real = sweep_module.eigenvalues_many

        def failing(mats, **kwargs):
            calls.append(len(mats))
            return [NoConvergence("synthetic") if m.tolist() == [[1, 1], [0, 0]] else s
                    for m, s in zip(mats, real(mats, **kwargs))]

        monkeypatch.setattr(sweep_module, "eigenvalues_many", failing)
        monkeypatch.setattr(sweep_module, "_STACK", 1)
        fields = [sorted(known) for _, _, known
                  in sweep_module._batch_facts(2, [0b0011, 0b0110, 0b0101], ["mcclelland"])]
        # Left undecided, they get their exact roots for the re-check.
        assert fields == [["charpoly", "verified_spectrum"],
                          ["charpoly", "spectrum", "verified_spectrum"],
                          ["charpoly", "verified_spectrum"]]
        assert calls == [1, 1]

    def test_sampled_orders_keep_each_graphs_own_kernel_calls(self, monkeypatch):
        # Above MAX_EXHAUSTIVE_ORDER nothing is keyed: a sampled n = 8
        # census makes the calls of a stage where every graph is its own
        # key, and no charpoly call for the graphs the arrays decide.
        calls = collections.Counter()
        for name in ("eigenvalues_many", "char_poly_exact_many", "poly_roots_many"):
            real = getattr(sweep_module, name)
            monkeypatch.setattr(sweep_module, name, lambda mats, _real=real, _name=name, **kw: (
                calls.update([(_name, len(mats))]) or _real(mats, **kw)))

        def run():
            calls.clear()
            report = sweep(8, ["mcclelland", "rho_lower"], samples=600, seed=4)
            return report.to_json_dict()["checks"], dict(calls)

        keyed = run()
        assert keyed[1][("eigenvalues_many", 256)] == 2
        assert sum(size * count for (name, size), count in keyed[1].items()
                   if name == "char_poly_exact_many") < 600
        _every_graph_its_own_key(monkeypatch)
        assert run() == keyed

    @pytest.mark.parametrize("theorems", [["charpoly_invariance"], ["oracle_roots"]])
    def test_batch_fills_nothing_past_a_kernels_size_cap(self, theorems):
        # Past n = 64 the exact charpoly stack raises SizeLimit as a whole:
        # no graph gets a charpoly, and so none gets its roots.  The QR
        # stack has no cap, so oracle_roots still gets the spectra.
        masks = [sweep_module._sample_mask(65, 0.05, 0.5, seed) for seed in range(2)]
        fields = [sorted(known) for _, _, known in sweep_module._batch_facts(65, masks, theorems)]
        expected = {"charpoly_invariance": [], "oracle_roots": ["spectrum"]}[theorems[0]]
        assert fields == [expected] * 2

    def test_complement_stack_matches_the_complements(self):
        # Every n = 3 class and 48 seeded n = 7 samples, with and without
        # loops: the stack is the complements' adjacency matrices, and
        # their stacked spectra equal the one-matrix spectra to the bit.
        for n, masks in ((3, orbit_classes(3)[0]),
                         (7, [sweep_module._sample_mask(7, 0.5, p, 40 + i)
                              for i, p in enumerate([0.0, 0.5] * 24)])):
            stack = sweep_module._complement_stack(sweep_module._adjacency_stack(n, masks))
            spectra = linalg.eigenvalues_many(stack, with_residuals=False)
            for mask, matrix, spectrum in zip(masks, stack, spectra):
                comp = linalg.adjacency(sweep_module.complement(digraph_from_bits(n, mask)))
                assert matrix.tolist() == comp.tolist()
                assert repr(spectrum) == repr(linalg.eigenvalues(comp, with_residuals=False))

    def test_adjacency_stack_is_the_adjacency_of_each_bit_pattern(self):
        # Both charpoly routes of a sweep read this stack.  Every class with
        # n <= 4, and seeded patterns of 49, 64 and 81 bits at n = 7, 8, 9.
        cases = [(n, orbit_classes(n)[0]) for n in range(1, 5)]
        cases += [(n, [sweep_module._sample_mask(n, 0.5, p, seed)
                       for seed, p in enumerate([0.0, 0.5, 1.0] * 20)]) for n in (7, 8, 9)]
        for n, masks in cases:
            stack = sweep_module._adjacency_stack(n, masks)
            assert stack.shape == (len(masks), n, n)
            for mask, matrix in zip(masks, stack):
                assert matrix.tolist() == linalg.adjacency(digraph_from_bits(n, mask)).tolist()

    def test_adjacency_stack_past_64_bits(self):
        # At n = 9 a bit pattern has 81 bits.
        masks = [0, (1 << 81) - 1, sum(1 << (9 * i + (i + 1) % 9) for i in range(9)) | 1 << 80]
        stack = sweep_module._adjacency_stack(9, masks)
        assert stack.shape == (3, 9, 9)
        for mask, matrix in zip(masks, stack):
            assert matrix.tolist() == linalg.adjacency(digraph_from_bits(9, mask)).tolist()


class TestFactsTable:
    """One facts table per chunk: each distinct component digraph is
    analysed once."""

    def test_component_facts_once_per_distinct_component(self, monkeypatch):
        # Facts built below the sweep's order are components' facts.  The
        # 188 of sweep(3, "all") cover 6 distinct digraphs, and the 5,179
        # of sweep(4, "all") cover 113.
        orders = collections.Counter()
        one_matrix = collections.Counter()
        init = GraphFacts.__init__

        def counting_init(facts, d, *args, **kwargs):
            orders[d.n] += 1
            init(facts, d, *args, **kwargs)

        def counting(fn):
            def wrapper(*args, **kwargs):
                one_matrix["eigenvalues"] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(GraphFacts, "__init__", counting_init)
        monkeypatch.setattr(spectral, "eigenvalues", counting(spectral.eigenvalues))
        monkeypatch.setattr(linalg, "eigenvalues", counting(linalg.eigenvalues))
        for n, distinct in ((3, 6), (4, 113)):
            orders.clear()
            one_matrix.clear()
            sweep(n, "all")
            assert sum(count for order, count in orders.items() if order < n) <= distinct
        # Nearly all the rest are the loopless forms of the 218 fully
        # looped classes (8,441 one-matrix calls before the table).
        assert one_matrix["eigenvalues"] <= 400

    def test_derived_facts_are_shared_through_the_table(self):
        # Two graphs with the directed triangle as a strong component, one
        # with a looped isolated vertex and one with a bare one: through
        # one table, their facts reach one facts object for it, which
        # keeps the table.  A graph's own facts, the loopless form that
        # the loop-shift check reads and the complement stay out.  Facts
        # built without a table share their derived facts through a table
        # of their own.
        triangle = new_digraph(3, [(0, 1), (1, 2), (2, 0)])
        table = {}
        first, second = (GraphFacts(new_digraph(4, triangle.arcs, loops), table=table)
                         for loops in ([3], []))
        shared = first.derived(triangle)
        assert any(f is shared for f in first.component_facts)
        assert any(f is shared for f in second.component_facts)
        assert shared.table is table and len(table) == 3   # the triangle and two vertices
        looped = GraphFacts(new_digraph(3, triangle.arcs, range(3)), table=table)
        assert looped.component_facts == [looped]
        assert THEOREM_CHECKS["loop_shift"](looped).status == "pass"
        assert looped.complement_facts.table is not table and len(table) == 3
        alone = GraphFacts(first.d)
        own = alone.derived(triangle)
        assert alone.derived(triangle) is own and own is not shared
        assert alone.table == {triangle: own} and own.table is alone.table

    def test_table_keeps_derived_graphs_up_to_order_4(self):
        # A sampled sweep all but never meets a component of order 5 or
        # more twice, so the table does not hold its facts.
        for n in (4, 5):
            cycle = new_digraph(n, [(i, (i + 1) % n) for i in range(n)])
            looped = GraphFacts(new_digraph(n, cycle.arcs, range(n)))
            kept = looped.derived(cycle) is looped.derived(cycle)
            assert kept == (n <= 4) and len(looped.table) == kept

    def test_report_independent_of_chunking(self, monkeypatch):
        # Tables live per chunk: chunks of 8 classes give the report of
        # one chunk, serially.
        whole = sweep(3, "all").to_json_dict()
        monkeypatch.setattr(sweep_module, "_PART_CLASSES", 8)
        parts = sweep(3, "all").to_json_dict()
        whole["wall_time"] = parts["wall_time"] = 0.0
        assert whole == parts


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
            # A graph the batch stage leaves out is decided on every check.
            decisions = [frozenset(ARRAY5)] * len(masks)
            for i, decided, _ in sweep_module._batch_facts(n, masks, ARRAY5):
                decisions[i] = decided
            for mask, decided in zip(masks, decisions):
                assert n > 1 or not decided   # every n = 1 certificate is an equality
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
        target = next(masks[i] for i, decided, _ in sweep_module._batch_facts(3, masks, theorems)
                      if masks[i] > masks[len(masks) // 2] and len(decided) == 4)
        real = THEOREM_CHECKS["trace_identities"]
        monkeypatch.setitem(THEOREM_CHECKS, "trace_identities", lambda facts: (
            CheckOutcome("fail", "synthetic")
            if facts.d == digraph_from_bits(3, target) else real(facts)))
        chunk = _run_chunk((3, masks, weights, theorems)).to_json_dict()
        walk = sweep_module._new_report(3, "", theorems, {})
        table = {}
        for mask, weight in zip(masks, weights):
            if not sweep_module._check_graph(walk, mask, theorems, weight, {}, frozenset(),
                                             table):
                break
        assert chunk == walk.to_json_dict()
        assert chunk["counterexamples"][0]["graph"] == to_json_dict(digraph_from_bits(3, target))
        checked = chunk["graphs_checked"]
        assert chunk["checks"]["rho_lower"]["pass"] == checked
        assert chunk["checks"]["power_sums"]["pass"] < checked


class TestBulkTallies:
    @pytest.fixture
    def census_stop(self, monkeypatch):
        """The census selection, with rho_lower failing on an n = 4 class
        past the first stack that the arrays leave undecided on it and
        that follows a class they decide on both checks."""
        masks, weights = orbit_classes(4)
        theorems = ["mcclelland", "rho_lower"]
        checked = {i: decided for i, decided, _
                   in sweep_module._batch_facts(4, masks, theorems)}
        target = next(i for i, decided in checked.items()
                      if i > 256 and "rho_lower" not in decided and i - 1 not in checked)
        witness = digraph_from_bits(4, masks[target])
        real = bounds.rho_lower

        def failing(facts):
            if facts.d == witness:
                raise CounterexampleError("synthetic")
            return real(facts)

        monkeypatch.setattr(bounds, "rho_lower", failing)
        return masks, weights, theorems, target

    def test_stop_after_bulk_tallied_graphs(self, census_stop):
        # The chunk runner tallies and stops as the per-graph walk with
        # nothing decided and nothing preset does: the graphs tallied in
        # bulk before the failing one count, and none after it.
        masks, weights, theorems, target = census_stop
        chunk = _run_chunk((4, masks, weights, theorems)).to_json_dict()
        walk = sweep_module._new_report(4, "", theorems, {})
        table = {}
        for mask, weight in zip(masks, weights):
            if not sweep_module._check_graph(walk, mask, theorems, weight, {}, frozenset(),
                                             table):
                break
        assert chunk == walk.to_json_dict()
        assert chunk["graphs_checked"] == sum(weights[:target + 1])
        assert chunk["checks"]["rho_lower"]["fail"] == weights[target]
        assert chunk["counterexamples"] == [
            {"check": "rho_lower", "graph": to_json_dict(digraph_from_bits(4, masks[target])),
             "detail": "synthetic"}]
        assert chunk["equality_census"]["rho_lower"]

    def test_stop_after_bulk_tallied_graphs_in_two_workers(self, census_stop):
        masks, weights, theorems, target = census_stop
        chunk = _run_chunk((4, masks, weights, theorems)).to_json_dict()
        payloads = []
        for jobs in (1, 2):
            payload = sweep(4, theorems, jobs=jobs).to_json_dict()
            del payload["wall_time"]
            payloads.append(payload)
        assert payloads[0] == payloads[1]
        assert payloads[1]["graphs_checked"] == sum(weights[:target + 1])
        for key in ("graphs_checked", "checks", "counterexamples", "equality_census"):
            assert payloads[1][key] == chunk[key]


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
