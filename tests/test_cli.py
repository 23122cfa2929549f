import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tritronquee
from tritronquee import cli, errors, painleve
from tritronquee.cli import main

_NUMERICAL_ERRORS = sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, errors.NumericalError)
     and cls is not errors.NumericalError),
    key=lambda cls: cls.__name__)


def test_bsb_command(capsys):
    assert main(["bsb", "--n", "1", "--m", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["a"][0] - (-2.34)) < 0.01
    assert abs(data["b"][0] - (-0.064)) < 0.005
    assert data["residual"] < 1e-10


def test_periods_command(capsys):
    code = main(["periods", "--a=-2.347591993156816",
                 "--b=-0.06399774265972677", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["chi2"][1] - 3.141592653589793) < 1e-9
    assert abs(data["chi_m2"][1] - 3.141592653589793) < 1e-9
    assert data["legendre_residual"] < 1e-8


def test_stokes_degenerate_exit_code(capsys):
    code = main(["stokes", "--a", "0", "--b", "0"])
    assert code == 3
    assert "DegenerateTurningPoints" in capsys.readouterr().err


def test_stokes_classification_and_plot(tmp_path, capsys):
    plot = tmp_path / "plot.json"
    code = main(["stokes", "--a=-2.347591993156816",
                 "--b=-0.06399774265972677", "--json",
                 "--emit-plot", str(plot)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["label"] == "320"
    doc = json.loads(plot.read_text())
    assert len(doc["polylines"]) == 9
    assert len(doc["points"]) == 3


def test_catalog_and_convergence_commands(tmp_path, capsys):
    out = tmp_path / "cat.json"
    code = main(["catalog", "--q", "1,1", "--K", "2", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    code = main(["convergence", "--catalog", str(out), "--q", "1/1", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ks"] == [0, 1, 2]
    assert -1.5 < data["fitted_exponent"] < -0.9


def test_convergence_insufficient_exit_code(tmp_path, capsys):
    out = tmp_path / "cat.json"
    assert main(["catalog", "--q", "1,1", "--K", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["convergence", "--catalog", str(out), "--q", "1/1"]) == 3
    assert "InsufficientData" in capsys.readouterr().err


def test_track_command(capsys):
    code = main(["track", "--to=-3.5", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["poles"]) == 1
    pole = data["poles"][0]
    assert abs(pole["a"][0] - (-2.3841687695685)) < 1e-6
    assert (pole["fit_residual"]
            == pole["fit_residual_a"] + pole["fit_residual_b"])


def test_track_subnormal_seed_angle(capsys):
    """A seed angle that underflows to zero (cmath.phase raises there)
    passes the same pole as the real seed."""
    assert main(["track", "--z0=40", "--to=-3.5", "--json"]) == 0
    real = json.loads(capsys.readouterr().out)
    assert main(["track", "--z0=40,1e-323", "--to=-3.5", "--json"]) == 0
    tilted = json.loads(capsys.readouterr().out)
    assert len(tilted["poles"]) == 1
    assert (tilted["poles"][0]["a"][0] == real["poles"][0]["a"][0]
            == -2.384168769568807)
    assert abs(tilted["poles"][0]["a"][1]) < 1e-300


def test_track_records_its_trail_only_for_a_plot(tmp_path, monkeypatch,
                                                  capsys):
    """The dense trail is computed only for ``--emit-plot``; the printed
    poles are the same without it."""
    dense = painleve._dense_points
    calls = []

    def counting(*args):
        calls.append(1)
        return dense(*args)

    monkeypatch.setattr(painleve, "_dense_points", counting)
    plot = tmp_path / "plot.json"
    assert main(["track", "--to=-3.5", "--json",
                 "--emit-plot", str(plot)]) == 0
    with_plot = capsys.readouterr().out
    assert calls and len(json.loads(plot.read_text())["polylines"][0]) > 0
    calls.clear()
    assert main(["track", "--to=-3.5", "--json"]) == 0
    assert calls == []
    assert capsys.readouterr().out == with_plot


def test_periods_non_finite_coefficient(capsys):
    assert main(["periods", "--a=nan", "--b=0"]) == 2
    assert "coefficient a = (nan+0j) is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_catalog_jobs_below_one_rejected(tmp_path, capsys, jobs):
    out = tmp_path / "cat.json"
    code = main(["catalog", "--q", "1,1", "--K", "1", f"--jobs={jobs}",
                 "--out", str(out)])
    assert code == 2
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_bad_arguments_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["periods", "--a", "nonsense", "--b", "0"])
    assert exc.value.code == 2


def test_nonprimitive_catalog_rejected(tmp_path, capsys):
    out = tmp_path / "cat.json"
    code = main(["catalog", "--q", "2,2", "--K", "0", "--out", str(out)])
    assert code == 2
    assert "primitive" in capsys.readouterr().err


def test_missing_catalog_io_exit_code(tmp_path, capsys):
    code = main(["convergence", "--catalog", str(tmp_path / "nope.json"),
                 "--q", "1/1"])
    assert code == 4


def test_refine_command(capsys):
    code = main(["refine", "--n", "1", "--m", "1", "--k", "0", "--no-gap",
                 "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["pole_a"][0] - (-2.3841687695418)) < 1e-6
    assert data["dep_residual"] < 1e-9


def test_bad_config_exit_code(tmp_path, capsys):
    # booleans, strings, non-finite and non-positive floats: no key takes
    # them, and each error names the file and the line
    conf = tmp_path / "conf"
    for text in ("unknown_key = 3", "tol_ode = true", "tol_dep = nan",
                 "tol_ode = inf", "fit_radius = -0.25", "tol_ode = 0",
                 'tol_dep = "abc"'):
        conf.write_text(f"# a comment\n{text}\n")
        code = main(["bsb", "--n", "1", "--m", "1", "--config", str(conf)])
        assert code == 2, text
        assert f"{conf}:2: " in capsys.readouterr().err, text


def test_track_z_seed_below_certified_radius(tmp_path, capsys):
    # z_seed picks the seed point; painleve.Z_SEED_MIN stays the bound
    conf = tmp_path / "conf"
    conf.write_text("z_seed = 30\n")
    assert main(["track", "--to=-3.5", "--config", str(conf)]) == 2
    assert "seeding radius" in capsys.readouterr().err


def _raising(exc):
    def command(args, cfg):
        raise exc
    return command


@pytest.mark.parametrize("cls", _NUMERICAL_ERRORS, ids=lambda c: c.__name__)
def test_numerical_error_exit_code(monkeypatch, capsys, cls):
    monkeypatch.setitem(cli._DISPATCH, "periods", _raising(cls("boom")))
    assert main(["periods", "--a", "1", "--b", "1"]) == 3
    assert cls.__name__ in capsys.readouterr().err


@pytest.mark.parametrize("exc, code", [(ValueError("bad"), 2),
                                       (OSError("gone"), 4)])
def test_other_error_exit_codes(monkeypatch, capsys, exc, code):
    monkeypatch.setitem(cli._DISPATCH, "periods", _raising(exc))
    assert main(["periods", "--a", "1", "--b", "1"]) == code
    assert str(exc) in capsys.readouterr().err


def test_error_note_names_every_numerical_error():
    named = set(re.findall(r"\b[A-Z][a-z]+(?:[A-Z][a-z0-9]*)+\b",
                           cli._ERROR_NOTE))
    assert named == {cls.__name__ for cls in _NUMERICAL_ERRORS}
    assert len(named) == 14


@pytest.mark.parametrize("argv", [
    ["periods", "--a", "1", "--b", "1", "--jobs", "2"],
    ["stokes", "--a", "1", "--b", "1", "--config", "f"],
    ["bsb", "--n", "1", "--m", "1", "--emit-plot", "p"],
    ["refine", "--n", "1", "--m", "1", "--alpha", "1"],
    ["refine", "--n", "1", "--m", "1", "--eps", "1"],
    ["track", "--to=-3.5", "--jobs", "2"],
    ["convergence", "--catalog", "c", "--q", "1/1", "--config", "f"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:-1]))
def test_unread_option_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_runtime_does_not_import_numpy():
    """The package and its CLI run on the standard library alone."""
    script = (
        "import sys\n"
        "import tritronquee, tritronquee.catalog, tritronquee.cli\n"
        "code = tritronquee.cli.main(['periods', '--a=-2.3475919932',\n"
        "                             '--b=-0.0639977427', '--json'])\n"
        "assert code == 0, code\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    src = str(Path(tritronquee.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
