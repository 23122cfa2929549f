import ast
import dataclasses
import inspect
import json
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tritronquee import bsb, catalog, config, oscillator
from tritronquee.bsb import QuantumPair, solve_bsb
from tritronquee.catalog import (CatalogEntry, build_catalog, catalog_entries,
                                 compute_entry, convergence_report,
                                 entry_from_json, entry_to_json, pole_scatter,
                                 read_catalog, write_catalog)
from tritronquee.config import ToolConfig, load_config
from tritronquee.errors import InsufficientData, NewtonDiverged


def _seed_as_pole(seed, **kwargs):
    """A ``refine_pole`` stand-in that returns the seed as the pole."""
    return SimpleNamespace(pole=seed.point, dep_residual=0.0,
                           wkb_gap=(0.0, 0.0))


def _synthetic_doc(exponent=-1.2, C=0.05, n=5, q=Fraction(1)):
    entries = []
    for k in range(n):
        err = C * (2 * k + 1) ** exponent
        entries.append(CatalogEntry(
            q=q, k=k, seed_a=complex(-2.3, 0), seed_b=complex(-0.06, 0),
            pole_a=complex(-2.3 - err, 0), pole_b=complex(-0.06, 0),
            dep_residual=1e-11, bsb_residual=1e-12, wkb_gap2=0.1 / (2 * k + 1),
            wkb_gapm2=0.1 / (2 * k + 1), error_a=err))
    return {"meta": {"tool": "tritronquee", "version": "test",
                     "config_hash": "0" * 16, "tolerances": {}},
            "entries": [entry_to_json(e) for e in entries]}


class TestSerialization:
    def test_entry_round_trip_identity(self):
        entry = CatalogEntry(
            q=Fraction(5, 3), k=2, seed_a=complex(-5.1, 2.3),
            seed_b=complex(-0.2, -0.13), pole_a=complex(-5.11, 2.31),
            pole_b=complex(-0.21, -0.14), dep_residual=3.14e-11,
            bsb_residual=2.7e-13, wkb_gap2=0.0123, wkb_gapm2=0.0456,
            error_a=0.01, painleve_a=complex(-5.11, 2.31), painleve_b=None)
        assert entry_from_json(entry_to_json(entry)) == entry

    def test_catalog_file_round_trip_bit_exact(self, tmp_path):
        doc = _synthetic_doc()
        path = tmp_path / "catalog.json"
        write_catalog(doc, str(path))
        loaded = read_catalog(str(path))
        assert loaded == doc
        # a second write of the loaded document is byte-identical
        path2 = tmp_path / "catalog2.json"
        write_catalog(loaded, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_catalog_valid(self, tmp_path):
        doc = build_catalog([], 3)
        assert doc["entries"] == []
        assert doc["meta"]["tool"] == "tritronquee"
        assert len(doc["meta"]["config_hash"]) == 16
        path = tmp_path / "empty.json"
        write_catalog(doc, str(path))
        assert read_catalog(str(path)) == doc


class TestConvergence:
    def test_exact_power_law(self):
        doc = _synthetic_doc(exponent=-1.2)
        report = convergence_report(doc, Fraction(1))
        assert abs(report.fitted_exponent - (-1.2)) < 1e-10
        assert report.fit_stderr < 1e-10

    @settings(max_examples=50, deadline=None)
    @given(data=st.lists(
        st.tuples(st.integers(0, 40), st.floats(1e-12, 1.0)),
        min_size=3, max_size=12, unique_by=lambda row: row[0]))
    def test_fit_matches_polyfit(self, data):
        entries = [CatalogEntry(
            q=Fraction(1), k=k, seed_a=complex(-2.3, 0),
            seed_b=complex(-0.06, 0), pole_a=complex(-2.3 - err, 0),
            pole_b=complex(-0.06, 0), dep_residual=1e-11, bsb_residual=1e-12,
            wkb_gap2=0.1, wkb_gapm2=0.1, error_a=err) for k, err in data]
        doc = {"entries": [entry_to_json(e) for e in entries]}
        report = convergence_report(doc, Fraction(1))
        x = np.log([2 * k + 1 for k, _ in data])
        y = np.log([err for _, err in data])
        # the fit in exact arithmetic on the same float logs
        xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
        n = len(xs)
        xbar, ybar = sum(xs) / n, sum(ys) / n
        sxx = sum((v - xbar) ** 2 for v in xs)
        slope = sum((u - xbar) * (v - ybar) for u, v in zip(xs, ys)) / sxx
        ssr = sum((v - ybar - slope * (u - xbar)) ** 2 for u, v in zip(xs, ys))
        exact = float(slope), math.sqrt(ssr / max(n - 2, 1) / sxx)
        # polyfit scales the covariance by the residual sum over n - 2; at
        # k = 38, 39, 40 with errors 1e-12 and 1 it is 6e-12 off the exact
        # fit, so it is held to a looser bound
        (slope, _), cov = np.polyfit(x, y, 1, cov=True)
        lapack = slope, math.sqrt(cov[0, 0])
        got = report.fitted_exponent, report.fit_stderr
        for ref, tol in ((exact, 1e-12), (lapack, 1e-10)):
            for value, want in zip(got, ref):
                assert abs(value - want) <= tol * max(1.0, abs(want))

    def test_insufficient_data(self):
        doc = _synthetic_doc(n=2)
        with pytest.raises(InsufficientData):
            convergence_report(doc, Fraction(1))

    def test_wrong_q_is_insufficient(self):
        doc = _synthetic_doc()
        with pytest.raises(InsufficientData):
            convergence_report(doc, Fraction(3))


class TestPipeline:
    def test_single_entry_seed_matches_reference(self):
        entry = compute_entry(solve_bsb(QuantumPair(1, 1)))
        assert entry.status == "ok"
        assert abs(entry.seed_a - (-2.34)) < 0.01
        assert abs(entry.seed_b - (-0.064)) < 0.005
        assert entry.dep_residual < 1e-9
        assert entry.error_a == abs(entry.pole_a - entry.seed_a)

    def test_painleve_crosscheck_entry(self):
        doc = build_catalog([QuantumPair(1, 1)], 0)
        [entry] = catalog_entries(doc)
        assert entry.painleve_a is not None
        assert abs(entry.painleve_a - entry.pole_a) < 1e-4
        assert abs(entry.painleve_b - entry.pole_b) < 1e-4

    def test_painleve_off_axis_sequence(self, monkeypatch):
        """(1, 3), q = 1/5, off the real axis, where a straight track from
        z_seed to each seed leaves the directions in which perturbations are
        neutral: the track through z = 0 passes every seed."""
        monkeypatch.setattr(catalog, "refine_pole", _seed_as_pole)
        doc = build_catalog([QuantumPair(1, 3)], 16)
        for e in catalog_entries(doc)[8:]:
            assert e.painleve_a is not None, e.k
            assert abs(e.painleve_a - e.seed_a) < 1e-3, e.k

    def test_painleve_decay_rate(self, monkeypatch):
        """The paper's |pole - seed| ~ (2k+1)^(-6/5), with route 3 for the
        pole: it never reads route 2.  A track seeded at 60 agrees."""
        monkeypatch.setattr(catalog, "refine_pole", _seed_as_pole)
        pairs = [QuantumPair(n, m)
                 for n, m in ((1, 1), (1, 2), (1, 3), (2, 3), (3, 5))]
        entries = catalog_entries(build_catalog(pairs, 16))
        far = catalog_entries(build_catalog(
            pairs, 16, dataclasses.replace(ToolConfig(), z_seed=60.0)))
        for e, f in zip(entries, far):
            assert abs(e.painleve_a - f.painleve_a) < 1e-10, (e.q, e.k)
        for q in {e.q for e in entries}:
            rows = [e for e in entries if e.q == q and e.k >= 2]
            x = np.log([2 * e.k + 1 for e in rows])
            y = np.log([abs(e.seed_a - e.painleve_a) for e in rows])
            slope = np.polyfit(x, y, 1)[0]
            assert -1.3 <= slope <= -1.1, (q, slope)

    def test_failed_entry_keeps_route_three(self, monkeypatch):
        """Route 3 does not read route 2: an entry whose refinement failed
        still gets its route-3 pole."""
        def refine(seed, **kwargs):
            if seed.k == 2:
                raise NewtonDiverged("refinement failed")
            return _seed_as_pole(seed)

        monkeypatch.setattr(catalog, "refine_pole", _seed_as_pole)
        clean = catalog_entries(
            build_catalog([QuantumPair(1, 1)], 3))
        monkeypatch.setattr(catalog, "refine_pole", refine)
        entries = catalog_entries(
            build_catalog([QuantumPair(1, 1)], 3))
        assert [e.status for e in entries] == [
            "ok", "ok", "error:NewtonDiverged", "ok"]
        assert entries[2].painleve_a is not None
        for e, c in zip(entries, clean):
            assert (e.painleve_a, e.painleve_b) == (c.painleve_a, c.painleve_b)

    def test_route_three_failure_keeps_the_catalog(self, monkeypatch):
        """On (3, 5) the track fails a pole fit near |a| = 254, short of
        the k = 32 seed: the catalog still completes, with no route-3
        value in that sequence, and route 2 starts from the seeds."""
        starts = []

        def refine(seed, start=None, **kwargs):
            starts.append(start)
            return _seed_as_pole(seed)

        monkeypatch.setattr(catalog, "refine_pole", refine)
        entries = catalog_entries(build_catalog([QuantumPair(3, 5)], 32))
        assert len(entries) == 33
        assert all(e.painleve_a is None and e.painleve_b is None
                   for e in entries)
        assert starts == [None] * 33

    def test_route_two_starts_from_route_three(self, monkeypatch):
        """Newton starts at each entry's route-3 pole, within its
        certificate of the root: q = 1, K = 4 makes 10 dependence passes,
        where 20 started from the seeds."""
        passes, starts = [], []
        system = oscillator.dependence_residual
        refine = catalog.refine_pole

        def counting(*args, **kwargs):
            passes.append(1)
            return system(*args, **kwargs)

        def spy(seed, **kwargs):
            starts.append(kwargs["start"])
            return refine(seed, **kwargs)

        monkeypatch.setattr(oscillator, "dependence_residual", counting)
        monkeypatch.setattr(catalog, "refine_pole", spy)
        entries = catalog_entries(build_catalog([QuantumPair(1, 1)], 4))
        assert len(passes) == 10
        assert [e.status for e in entries] == ["ok"] * 5
        assert starts == [(e.painleve_a, e.painleve_b) for e in entries]

    def test_two_q_catalog(self, tmp_path):
        doc = build_catalog([QuantumPair(1, 1), QuantumPair(3, 1)], 3)
        assert len(doc["entries"]) == 8
        for e in doc["entries"]:
            assert e["status"] == "ok"
            assert e["dep_residual"] < 1e-9
        path = tmp_path / "two_q.json"
        write_catalog(doc, str(path))
        assert read_catalog(str(path)) == doc

    def test_real_ladder_is_exactly_real(self):
        """The q = 1 seeds and poles lie exactly on the real axis: route 1
        and route 2 both take real Newton steps at real (a, b)."""
        doc = build_catalog([QuantumPair(1, 1)], 4)
        assert len(doc["entries"]) == 5
        for e in doc["entries"]:
            assert e["status"] == "ok"
            for key in ("seed_a", "seed_b", "pole_a", "pole_b"):
                assert e[key][1] == 0.0, (e["k"], key)

    def test_read_back_has_the_built_types(self, tmp_path):
        """Every field of a built entry has the type it reads back with:
        the WKB gaps are float, not numpy.float64."""
        doc = build_catalog([QuantumPair(1, 1)], 0)
        path = tmp_path / "cat.json"
        write_catalog(doc, str(path))
        loaded = read_catalog(str(path))

        def types(entries):
            return [{key: type(value) for key, value in e.items()}
                    for e in entries]

        assert type(doc["entries"][0]["wkb_gap2"]) is float
        assert type(doc["entries"][0]["wkb_gapm2"]) is float
        assert types(loaded["entries"]) == types(doc["entries"])

    def test_determinism(self):
        doc1 = build_catalog([QuantumPair(1, 1)], 0)
        doc2 = build_catalog([QuantumPair(1, 1)], 0)
        assert json.dumps(doc1) == json.dumps(doc2)

    def test_parallel_matches_serial(self):
        serial = build_catalog([QuantumPair(1, 1)], 1)
        parallel = build_catalog([QuantumPair(1, 1)], 1, jobs=2)
        assert json.dumps(serial) == json.dumps(parallel)

    def test_primitive_solved_once_per_q(self, monkeypatch):
        solve = catalog.solve_bsb
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return solve(*args, **kwargs)

        def no_refinement(*args, **kwargs):
            raise NewtonDiverged("refinement skipped")

        monkeypatch.setattr(catalog, "solve_bsb", counting)
        monkeypatch.setattr(catalog, "refine_pole", no_refinement)
        q_list = [QuantumPair(1, 1), QuantumPair(3, 1)]
        doc = build_catalog(q_list, 3)
        assert len(calls) == len(q_list)
        assert [e["k"] for e in doc["entries"]] == [0, 1, 2, 3] * 2

    def test_production_runs_the_named_layers(self, monkeypatch):
        """The catalog runs route 1 and route 2 through the public layers
        that the API and the benchmark's tracer name, not through forks."""
        calls = {}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(catalog, "compute_entry")
        counting(oscillator, "dependence_residual")
        counting(bsb, "solve_period_targets")
        build_catalog([QuantumPair(1, 1)], K=1)
        assert calls["compute_entry"] == 2
        assert calls["solve_period_targets"] == 1
        assert calls["dependence_residual"] >= 2

    def test_pole_scatter(self):
        doc = _synthetic_doc(n=3)
        plot = pole_scatter(doc)
        assert len(plot["points"]) == 3
        assert len(plot["labels"]) == 3
        assert plot["polylines"] == []


class TestConfig:
    def test_defaults_hash_stable(self):
        assert ToolConfig().digest() == ToolConfig().digest()

    def test_load_overrides(self, tmp_path):
        path = tmp_path / "conf"
        path.write_text("tol_dep = 1e-8  # looser\nlaurent_order = 10\n")
        cfg = load_config(str(path))
        assert cfg.tol_dep == 1e-8
        assert cfg.laurent_order == 10
        assert cfg.digest() != ToolConfig().digest()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "conf"
        # tol_wkb was a key that nothing read, tol_quad one the catalog
        # ignored; both are now unknown
        for text in ("tol_nonsense = 1\n", "tol_wkb = 1e-11\n",
                     "tol_quad = 1e-9\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="unknown config key"):
                load_config(str(path))

    def test_integer_key_takes_only_integers(self, tmp_path):
        # laurent_order sizes the generated Laurent frame; 10.7 loaded as 10
        path = tmp_path / "conf"
        for text in ("laurent_order = 10.7\n", "laurent_order = 10.0\n",
                     "laurent_order = true\n", "laurent_order = ten\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="takes an integer"):
                load_config(str(path))

    def test_every_key_is_read(self):
        # by the catalog, so that its header hash describes its entries
        source = inspect.getsource(catalog)
        for field in dataclasses.fields(ToolConfig):
            assert re.search(rf"\bcfg\.{field.name}\b", source), field.name

    def test_defaults_are_module_constants(self):
        tree = ast.parse(inspect.getsource(config.ToolConfig))
        defaults = [node.value for node in ast.walk(tree)
                    if isinstance(node, ast.AnnAssign)]
        assert len(defaults) == len(dataclasses.fields(ToolConfig)) == 13
        for node in defaults:
            assert isinstance(node, ast.Attribute), ast.unparse(node)

    def test_painleve_crosscheck_reads_config(self, monkeypatch):
        cfg = dataclasses.replace(
            ToolConfig(), tol_seed=2e-10, tol_match=2e-8, seed_margin=0.2,
            fit_radius=0.2, blowup_threshold=2e4, laurent_order=14,
            tol_fit=2e-6)
        seen = {}

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                seen[name] = kwargs
                return fn(*args, **kwargs)
            return wrapper

        def refine(seed, **kwargs):
            return SimpleNamespace(pole=seed.point, dep_residual=0.0,
                                   wkb_gap=(0.0, 0.0))

        monkeypatch.setattr(catalog, "refine_pole", refine)
        monkeypatch.setattr(catalog, "seed_asymptotic",
                            spy("seed", catalog.seed_asymptotic))
        monkeypatch.setattr(catalog, "track", spy("track", catalog.track))
        doc = build_catalog([QuantumPair(1, 1)], 0, cfg)
        assert doc["entries"][0]["painleve_a"] is not None
        assert seen["seed"] == {"tol_seed": 2e-10, "tol_match": 2e-8,
                                "margin": 0.2}
        assert seen["track"] == {"fit_radius": 0.2, "blowup_threshold": 2e4,
                                 "laurent_order": 14, "tol_fit": 2e-6}
