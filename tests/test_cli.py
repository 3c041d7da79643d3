import json
import os

import numpy as np
import pytest

from lawe_spectra import cli


def write_config(path, **blocks):
    cfg = {"schema": 1}
    cfg.update(blocks)
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def spectrum_cfg(tmp_path):
    return write_config(tmp_path / "cfg.json",
                        analysis={"n_trunc": 120, "i_start": 16})


def test_transform_check_rational_prints_exact(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", output={"directory": str(tmp_path / "out")})
    rc = cli.run("transform-check", cfg, argv_extra=["--rational"])
    assert rc == 0
    assert "residual: exact zero, n=50" in capsys.readouterr().out
    art = json.loads((tmp_path / "out" / "transform_check.json").read_text())
    assert art["rational"] is True
    assert art["exact"] is True
    assert art["max_residual"] == "0"


def test_transform_check_float_mode_cannot_certify(tmp_path, capsys):
    # graded factors overflow doubles on deep instances; only the exact
    # rational route certifies the identity, which is the whole point
    cfg = write_config(tmp_path / "cfg.json", output={"directory": str(tmp_path / "out")})
    assert cli.run("transform-check", cfg) == 0
    out = capsys.readouterr().out
    assert "(float)" in out
    art = json.loads((tmp_path / "out" / "transform_check.json").read_text())
    assert art["exact"] is False
    assert float(art["max_residual"]) > 0.0


def test_rational_mode_exact_for_every_seed(tmp_path, capsys):
    hashes = set()
    for seed in (0, 1, 2):
        out = tmp_path / f"out{seed}"
        cfg = write_config(tmp_path / f"cfg{seed}.json",
                           output={"directory": str(out)})
        assert cli.run("transform-check", cfg,
                       argv_extra=["--rational", "--seed", str(seed)]) == 0
        art = json.loads((out / "transform_check.json").read_text())
        assert art["exact"] is True and art["max_residual"] == "0"
        hashes.add(art["config_sha256"])
    # the seed is part of the effective config, so provenance differs
    assert len(hashes) == 3
    capsys.readouterr()


def test_spectrum_artifacts_byte_identical_across_runs(tmp_path, spectrum_cfg, capsys):
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli.run("spectrum", spectrum_cfg, argv_extra=["--out", str(out)]) == 0
        blobs.append(((out / "eigenvalues.csv").read_bytes(),
                      (out / "fill_report.json").read_bytes()))
    assert blobs[0] == blobs[1]
    assert "spectrum: n=" in capsys.readouterr().out


def test_thread_count_does_not_change_numbers(tmp_path, spectrum_cfg, capsys):
    rows = []
    for extra in ([], ["--threads", "3"]):
        out = tmp_path / f"t{len(extra)}"
        assert cli.run("spectrum", spectrum_cfg,
                       argv_extra=["--out", str(out)] + list(extra)) == 0
        rows.append((out / "eigenvalues.csv").read_text().splitlines())
    # the provenance line hashes the config (thread count included);
    # the numerical rows must agree exactly
    assert rows[0][1:] == rows[1][1:]
    assert rows[0][0] != rows[1][0]


def test_csv_opens_with_config_hash(tmp_path, spectrum_cfg, capsys):
    out = tmp_path / "out"
    assert cli.run("spectrum", spectrum_cfg, argv_extra=["--out", str(out)]) == 0
    head = (out / "eigenvalues.csv").read_text().splitlines()[0]
    assert head.startswith("# config sha256: ")
    digest = head.split(": ")[1]
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    report = json.loads((out / "fill_report.json").read_text())
    assert report["config_sha256"] == digest
    capsys.readouterr()


def test_hash_ignores_output_location_only(tmp_path):
    base = {"analysis": {"subcommand": "spectrum", "n_trunc": 64}}
    cfg_a = cli.load_config(write_config(tmp_path / "a.json", **base))
    cfg_b = cli.load_config(write_config(
        tmp_path / "b.json", output={"directory": "elsewhere"}, **base))
    cfg_c = cli.load_config(write_config(
        tmp_path / "c.json", model={"eta": 0.4}, **base))
    args = type("A", (), {"subcommand": None, "seed": None, "rational": False,
                          "threads": None, "out": None})()
    h = [cli.config_hash(cli.effective_config(c, args)) for c in (cfg_a, cfg_b, cfg_c)]
    assert h[0] == h[1]
    assert h[0] != h[2]


def test_validation_failures_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad_eta.json", model={"eta": 1.5})
    assert cli.run("spectrum", cfg, argv_extra=["--out", str(tmp_path / "o1")]) == 1
    assert "eta must lie in (0,1)" in capsys.readouterr().err

    cfg = write_config(tmp_path / "bad_key.json", model={"etaa": 0.5})
    assert cli.run("spectrum", cfg) == 1
    assert "unknown key(s) ['etaa'] in model block" in capsys.readouterr().err

    bad_schema = tmp_path / "bad_schema.json"
    bad_schema.write_text(json.dumps({"schema": 2}))
    assert cli.run("spectrum", str(bad_schema)) == 1
    assert "config schema must be 1" in capsys.readouterr().err

    nonjson = tmp_path / "not.json"
    nonjson.write_text("{nope")
    assert cli.run("spectrum", str(nonjson)) == 1
    assert "config is not valid JSON" in capsys.readouterr().err

    assert cli.main(["--config", write_config(tmp_path / "nosub.json")]) == 1
    assert "no subcommand" in capsys.readouterr().err

    assert cli.run("spectrum", write_config(tmp_path / "r.json"),
                   argv_extra=["--rational"]) == 1
    assert "--rational applies to transform-check only" in capsys.readouterr().err

    cfg = write_config(tmp_path / "bad_eos.json", eos={"variant": "nope"})
    assert cli.run("spectrum", cfg) == 1
    assert "eos variant must be one of" in capsys.readouterr().err


def test_threads_env_fallback(tmp_path, spectrum_cfg, capsys, monkeypatch):
    monkeypatch.setenv("LAWE_SPECTRA_THREADS", "2")
    out = tmp_path / "env"
    assert cli.run("spectrum", spectrum_cfg, argv_extra=["--out", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("LAWE_SPECTRA_THREADS", "0")
    assert cli.run("spectrum", spectrum_cfg, argv_extra=["--out", str(out)]) == 1
    assert "threads must be a positive integer" in capsys.readouterr().err


def test_jost_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       analysis={"n_trunc": 600, "i_start": 16,
                                 "lambdas": [0.0, 1.6]},
                       output={"directory": str(tmp_path / "out")})
    assert cli.run("jost", cfg) == 0
    out = capsys.readouterr().out
    assert out.count("jost: lambda=") == 2
    art = json.loads((tmp_path / "out" / "jost.json").read_text())
    assert [f["lambda"] for f in art["fits"]] == [0.0, 1.6]
    assert all(f["theta_error"] < 1e-3 for f in art["fits"])


def test_ppmodes_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       analysis={"n_trunc": 1200},
                       output={"directory": str(tmp_path / "out")})
    assert cli.run("ppmodes", cfg) == 0
    assert "ppmodes: count=25" in capsys.readouterr().out
    art = json.loads((tmp_path / "out" / "ppmodes.json").read_text())
    assert art["count"] == 25
    assert art["edge"] == -2.0
    rows = (tmp_path / "out" / "ppmodes.csv").read_text().splitlines()
    assert rows[1] == "value,depth,block,in_block,dr_bounded"
    assert len(rows) == 2 + 25


def test_scaled_smoke_and_profile_guard(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       eos={"variant": "polytrope", "Gamma": 2.0},
                       analysis={"n_trunc": 400, "lambdas": [0.0]},
                       output={"directory": str(tmp_path / "out")})
    assert cli.run("scaled", cfg) == 0
    assert "omega_slope=0.346574" in capsys.readouterr().out
    art = json.loads((tmp_path / "out" / "scaled.json").read_text())
    assert art["nu"] == 0.5
    assert art["mu_inf"] == 4.0
    assert art["beta_inf"] == 6.0

    cfg = write_config(tmp_path / "geo.json",
                       analysis={"n_trunc": 400})
    assert cli.run("scaled", cfg) == 1
    assert "needs a constant adiabatic exponent" in capsys.readouterr().err


def test_spectrum_refuses_graded_section(tmp_path, capsys):
    # the raw polytrope operator is graded over tens of decades; an
    # absolute certificate tolerance cannot resolve its small eigenvalues
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json",
                       eos={"variant": "polytrope", "Gamma": 2.0},
                       analysis={"n_trunc": 300, "i_start": 1},
                       output={"directory": str(out)})
    assert cli.run("spectrum", cfg) == 1
    err = capsys.readouterr().err
    assert "the section is graded" in err
    assert "run the scaled subcommand" in err
    assert not (out / "eigenvalues.csv").exists()


def test_scaled_overflow_exits_numerical(tmp_path, capsys):
    # the stiff pressure factor overflows at this depth; the solver must
    # refuse the non-finite operator instead of writing NaN frequencies
    cfg = write_config(tmp_path / "cfg.json",
                       model={"eta": 0.3, "gamma": 1.5},
                       eos={"variant": "polytrope", "Gamma": 1.3},
                       analysis={"n_trunc": 900},
                       output={"directory": str(tmp_path / "out")})
    with np.errstate(all="ignore"):
        assert cli.run("scaled", cfg) == 2
    assert "non-finite entry in row" in capsys.readouterr().err


def test_sl_trace_csv_layout(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json",
                       eos={"variant": "polytropic", "a": 2, "b": 4},
                       analysis={"lambdas": [1.0], "x_max": 60.0, "rtol": 1e-8},
                       output={"directory": str(out)})
    assert cli.run("sl", cfg) == 0
    text = capsys.readouterr().out
    assert "sl: route=integrable_canonical_potential applies=True" in text
    assert "diverges=True" in text
    rows = (out / "trace_0.csv").read_text().splitlines()
    assert rows[1] == "X,ReY,ImY,ReY_prime,ImY_prime,x,xi,delta_r"
    data = np.loadtxt(rows[2:], delimiter=",")
    assert np.all(data[:, 2] == 0.0) and np.all(data[:, 4] == 0.0)
    assert np.array_equal(data[:, 7], data[:, 5] * data[:, 6])
    case = json.loads((out / "sl_case.json").read_text())
    assert case["route"] == "integrable_canonical_potential"
    res = json.loads((out / "sl.json").read_text())
    assert res["traces"][0]["regularity"]["analytic_power"] == 2.5


def test_report_aggregates_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", output={"directory": str(out)})
    assert cli.run("transform-check", cfg, argv_extra=["--rational"]) == 0
    assert cli.run("report", cfg) == 0
    assert "report: aggregated 1 artifact(s)" in capsys.readouterr().out
    rep = json.loads((out / "report.json").read_text())
    assert "transform_check.json" in rep["artifacts"]
    md = (out / "report.md").read_text()
    assert "## transform_check.json" in md
    assert "config sha256:" in md
