import json
from fractions import Fraction

import pytest

from tritronquee import catalog
from tritronquee.bsb import QuantumPair
from tritronquee.catalog import (CatalogEntry, build_catalog,
                                 compute_entry,
                                 convergence_report, entry_from_json,
                                 entry_to_json, pole_scatter, read_catalog,
                                 write_catalog)
from tritronquee.config import ToolConfig, load_config
from tritronquee.errors import InsufficientData, NewtonDiverged


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
        entry = compute_entry(QuantumPair(1, 1), 0)
        assert entry.status == "ok"
        assert abs(entry.seed_a - (-2.34)) < 0.01
        assert abs(entry.seed_b - (-0.064)) < 0.005
        assert entry.dep_residual < 1e-9
        assert entry.error_a == abs(entry.pole_a - entry.seed_a)

    def test_painleve_crosscheck_entry(self):
        entry = compute_entry(QuantumPair(1, 1), 0, painleve=True)
        assert entry.painleve_a is not None
        assert abs(entry.painleve_a - entry.pole_a) < 1e-4
        assert abs(entry.painleve_b - entry.pole_b) < 1e-4

    def test_two_q_catalog(self, tmp_path):
        doc = build_catalog([QuantumPair(1, 1), QuantumPair(3, 1)], 3)
        assert len(doc["entries"]) == 8
        for e in doc["entries"]:
            assert e["status"] == "ok"
            assert e["dep_residual"] < 1e-9
        path = tmp_path / "two_q.json"
        write_catalog(doc, str(path))
        assert read_catalog(str(path)) == doc

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
        path.write_text("tol_quad = 1e-9  # looser\nlaurent_order = 10\n")
        cfg = load_config(str(path))
        assert cfg.tol_quad == 1e-9
        assert cfg.laurent_order == 10
        assert cfg.digest() != ToolConfig().digest()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "conf"
        path.write_text("tol_nonsense = 1\n")
        with pytest.raises(ValueError):
            load_config(str(path))
