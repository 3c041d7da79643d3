import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lawe_spectra import cli, polytrans, slform
from lawe_spectra.errors import NumericalError, ValidationError


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
    cfg = write_config(tmp_path / "cfg.json", analysis={"rational": True},
                       output={"directory": str(tmp_path / "out")})
    rc = cli.run("transform-check", cfg)
    assert rc == 0
    assert "residual: exact zero, n=50" in capsys.readouterr().out
    art = json.loads((tmp_path / "out" / "transform_check.json").read_text())
    assert art["rational"] is True
    assert art["exact"] is True
    assert art["max_residual"] == "0"


#: sha256 of transform_check.json as written when every rational run drew
#: its instances and certified each one: (seed, n_instances) -> digest
_RATIONAL_DIGESTS = {
    (0, 1): "053d9703b7bde481c467528d537070cab97953869708b37fbaf2c8275f7ae9b0",
    (0, 50): "77b7c712dae788aae08e185fd2478b014b63c4aa75f3d9d23faa1feed89a0990",
    (1, 1): "0bf2e04a4c9d603ffee44bc2fb87eb5b69478c3ff277a2f39cbfd31aca704052",
    (1, 50): "ad4298e9e36cb129fbb6ed1a476761470f1df13ee443e90a0d75af8bc32a0812",
    (7, 1): "5509f635ccb3b838fff02cf9c449e25675d8b355b5a8d913ce6688ea96653219",
    (7, 50): "4abc7051bc70a7a782d9d51d737e1dd3b40b6962ea8fcfe76d05f5056e0d8e01",
}


@pytest.mark.parametrize("seed, n_instances", sorted(_RATIONAL_DIGESTS))
def test_rational_transform_check_one_pass_writes_the_same_bytes(
        tmp_path, capsys, seed, n_instances):
    import hashlib
    cfg = write_config(tmp_path / "cfg.json", analysis={
        "rational": True, "seed": seed, "n_instances": n_instances})
    assert cli.run("transform-check", cfg, argv_extra=["--out", str(tmp_path / "out")]) == 0
    data = (tmp_path / "out" / "transform_check.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == _RATIONAL_DIGESTS[seed, n_instances]
    assert capsys.readouterr().out == f"residual: exact zero, n={n_instances}\n"


@pytest.mark.parametrize("j", [1, 2, 37, 63, 64])
def test_rational_transform_check_exits_2_on_a_mutated_exponent(
        tmp_path, capsys, monkeypatch, j):
    # p_j - 1 at one j <= 64 breaks the leftover sum of row j; one instance
    # would have had to draw a size of at least j to see it
    real = polytrans.grading_exponents

    def mutated(n):
        p, q = real(n)
        if j <= n:
            p = p.copy()
            p[j - 1] -= 1
        return p, q
    monkeypatch.setattr(polytrans, "grading_exponents", mutated)
    cfg = write_config(tmp_path / "cfg.json", analysis={"rational": True, "n_instances": 1})
    assert cli.run("transform-check", cfg, argv_extra=["--out", str(tmp_path / "out")]) == 2
    assert "grading identity violated" in capsys.readouterr().err
    assert not (tmp_path / "out" / "transform_check.json").exists()


def test_repeating_float_columns_format_each_value_once(monkeypatch):
    # a column whose cells mostly repeat the cell two rows above, as a
    # saturated 2-periodic tail does, formats its distinct bit patterns
    # once; the text equals repr per cell, -0.0, subnormals and extreme
    # exponents included.  Other columns, with repeats elsewhere or none,
    # format cell by cell and never sort
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
               1.7976931348623157e308, -1e300, 1e16, 1e-05, 0.1, 1.0 / 3.0]
    base = np.array(special + rng.standard_normal(20).tolist())
    saturated = np.concatenate([base, np.resize(base[-2:], 300)])
    periodic = [saturated, saturated[len(special):].astype(np.float32), saturated[::-1],
                np.tile([-0.0, 0.0], 50), np.tile([5e-324, -0.0, -1e300, 0.1], 50)[::2]]
    others = [np.tile(special, 25), rng.choice(base, 400), rng.standard_normal(500),
              np.array([-0.0])]
    sorts = []
    real = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(1) or real(*a, **k))
    for k, col in enumerate(periodic + others):
        assert list(cli._cells(col)) == [repr(v) for v in col.astype(float).tolist()]
        assert len(sorts) == min(k + 1, len(periodic)), k
    assert list(cli._cells(np.array([]))) == []
    # integer and boolean columns keep their own text
    assert list(cli._cells(np.array([0, -3, 2**40, 0, -3]))) == ["0", "-3", str(2**40), "0", "-3"]
    assert list(cli._cells(np.array([True, False, True, True]))) == [
        "true", "false", "true", "true"]


def test_transform_check_float_mode_cannot_certify(tmp_path, capsys):
    # graded factors overflow doubles on deep instances; only the exact
    # exponent certificate of the rational mode certifies the identity
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
                           analysis={"rational": True, "seed": seed},
                           output={"directory": str(out)})
        assert cli.run("transform-check", cfg) == 0
        art = json.loads((out / "transform_check.json").read_text())
        assert art["exact"] is True and art["max_residual"] == "0"
        hashes.add(art["config_sha256"])
    # the seed is part of the effective config, so provenance differs
    assert len(hashes) == 3
    capsys.readouterr()


def test_consecutive_runs_do_not_share_options(tmp_path, capsys):
    # main parses every job with one parser built at import; no option of
    # one job may reach the next
    cfg = write_config(tmp_path / "cfg.json", analysis={"n_instances": 2},
                       output={"directory": str(tmp_path / "cfg_out")})
    flagged = tmp_path / "flag_out"
    assert cli.run("transform-check", cfg, argv_extra=["--out", str(flagged)]) == 0
    assert cli.run("transform-check", cfg) == 0
    assert os.listdir(flagged) == ["transform_check.json"]
    assert os.listdir(tmp_path / "cfg_out") == ["transform_check.json"]
    # the second job writes where its config says; the location is not
    # hashed, so both jobs write the same bytes
    args = cli._PARSER.parse_args(["transform-check", "--config", cfg])
    assert args.out is None
    eff = cli.effective_config(cli.load_config(cfg), args)
    first = (flagged / "transform_check.json").read_text()
    assert (tmp_path / "cfg_out" / "transform_check.json").read_text() == first
    assert json.loads(first)["config_sha256"] == cli.config_hash(eff)
    capsys.readouterr()


@pytest.mark.parametrize("sub, blocks, keys", [
    ("spectrum", {"model": {"eta": 0.5, "gamma": 3000}}, ["model.eta", "model.gamma"]),
    ("spectrum", {"model": {"eta": 1e-300, "gamma": 4}}, ["model.eta", "model.gamma"]),
    ("ppmodes", {"model": {"gamma": 3000}}, ["model.eta", "model.gamma"]),
    ("scaled", {"eos": {"variant": "polytrope", "Gamma": 2000}}, ["eos.Gamma"]),
], ids=["spectrum-gamma", "spectrum-eta", "ppmodes-gamma", "scaled-Gamma"])
def test_steep_power_law_exits_1(tmp_path, capsys, sub, blocks, keys):
    # eta**-gamma, 1/eta or eta**-e3 beyond the float range would raise an
    # OverflowError in the library; the config is refused up front instead
    cfg = write_config(tmp_path / "cfg.json", **blocks,
                       output={"directory": str(tmp_path / "out")})
    assert cli.run(sub, cfg) == 1
    err = capsys.readouterr().err
    assert all(key in err for key in keys)
    assert "Traceback" not in err


def test_spectrum_artifacts_byte_identical_across_runs(tmp_path, spectrum_cfg, capsys):
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli.run("spectrum", spectrum_cfg, argv_extra=["--out", str(out)]) == 0
        blobs.append(((out / "eigenvalues.csv").read_bytes(),
                      (out / "fill_report.json").read_bytes()))
    assert blobs[0] == blobs[1]
    assert "spectrum: n=" in capsys.readouterr().out


@pytest.mark.parametrize("n_trunc, route", [(120, "constant_tail"), (60, "sterf")])
def test_fill_report_records_the_eigenvalue_route(tmp_path, capsys, n_trunc, route):
    # the default model's section is constant past row 39: 81 tail rows
    # at n_trunc 120 take the Newton route, 21 at n_trunc 60 are too few
    cfg = write_config(tmp_path / "cfg.json", analysis={"n_trunc": n_trunc, "i_start": 16})
    assert cli.run("spectrum", cfg, argv_extra=["--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "fill_report.json").read_text())
    assert (report["route"], report["tail_start"]) == (route, 39)
    assert (report["newton_steps"] > 0) == (route == "constant_tail")
    assert "edge_test" not in report
    capsys.readouterr()


def test_thread_count_does_not_change_numbers(tmp_path, capsys):
    rows = []
    for threads in (None, 3):
        out = tmp_path / f"t{threads}"
        cfg = write_config(tmp_path / f"cfg{threads}.json", output={"directory": str(out)},
                           analysis={"n_trunc": 120, "i_start": 16, "threads": threads})
        assert cli.run("spectrum", cfg) == 0
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
    base = {"analysis": {"n_trunc": 64}}
    cfg_a = cli.load_config(write_config(tmp_path / "a.json", **base))
    cfg_b = cli.load_config(write_config(
        tmp_path / "b.json", output={"directory": "elsewhere"}, **base))
    cfg_c = cli.load_config(write_config(
        tmp_path / "c.json", model={"eta": 0.4}, **base))
    args = type("A", (), {"subcommand": "spectrum", "out": None})()
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
    assert "the following arguments are required: subcommand" in capsys.readouterr().err

    assert cli.main(["spectra"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice" in err and "spectra" in err

    cfg = write_config(tmp_path / "bad_eos.json", eos={"variant": "nope"})
    assert cli.run("spectrum", cfg) == 1
    assert "eos variant must be one of" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--rational"], ["--threads", "2"]],
                         ids=["seed", "rational", "threads"])
def test_removed_flag_exits_1(tmp_path, capsys, flag):
    # the config is the one source of a job's settings: analysis.seed,
    # .rational and .threads have no command-line override
    out = tmp_path / "out"
    assert cli.run("transform-check", None, argv_extra=["--out", str(out), *flag]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and flag[0] in err
    assert "Traceback" not in err
    assert not out.exists()


def test_default_spectrum_config_hash_is_pinned(tmp_path, capsys):
    # the effective config records the subcommand as analysis.subcommand and
    # every default; each artifact's provenance hashes it, so it must not drift
    pinned = "89da41760d6d2e7af4f3f37780435219bacda08579bacde468e666fb7b06e302"
    eff = cli.effective_config({"schema": 1}, cli._PARSER.parse_args(["spectrum"]))
    assert eff["analysis"]["subcommand"] == "spectrum"
    assert cli.config_hash(eff) == pinned
    out = tmp_path / "out"
    assert cli.run("spectrum", None, argv_extra=["--out", str(out)]) == 0
    assert (out / "eigenvalues.csv").read_text().startswith(f"# config sha256: {pinned}\n")
    assert json.loads((out / "fill_report.json").read_text())["config_sha256"] == pinned
    capsys.readouterr()


THIS_CONFIG = "<the config file itself>"

# malformed configs: (subcommand, blocks, text stderr must hold)
PROBES = {
    "n_trunc-string": ("spectrum", {"analysis": {"n_trunc": "abc"}},
                       "analysis.n_trunc must be an integer, got 'abc'"),
    "n_trunc-float": ("spectrum", {"analysis": {"n_trunc": 10.5}},
                      "analysis.n_trunc must be an integer, got 10.5"),
    "n_trunc-zero": ("spectrum", {"analysis": {"n_trunc": 0}}, "need n >= 2, got 0"),
    "eta-string": ("spectrum", {"model": {"eta": "x"}}, "model.eta must be"),
    "eta-nan": ("spectrum", {"model": {"eta": float("nan")}}, "model.eta must be"),
    "lambdas-scalar": ("jost", {"analysis": {"lambdas": 0.5}}, "analysis.lambdas"),
    "lambdas-string": ("jost", {"analysis": {"lambdas": ["a"]}}, "analysis.lambdas"),
    "lambdas-nan": ("scaled", {"analysis": {"lambdas": [float("nan")]}},
                    "analysis.lambdas"),
    "pad-string": ("spectrum", {"analysis": {"pad": "x"}}, "analysis.pad"),
    "i_min-string": ("scaled", {"analysis": {"i_min": "q"}}, "analysis.i_min"),
    "n_trunc-short-scaled": ("scaled", {"eos": {"variant": "polytrope"},
                                        "analysis": {"n_trunc": 5}},
                             "analysis.n_trunc must be at least 9 for scaled, got 5"),
    "threads-string": ("spectrum", {"analysis": {"threads": "two"}},
                       "analysis.threads"),
    "threads-zero": ("spectrum", {"analysis": {"threads": 0}},
                     "analysis.threads must be a positive integer, got 0"),
    "threads-bool": ("spectrum", {"analysis": {"threads": True}}, "analysis.threads"),
    "n_instances-negative": ("transform-check", {"analysis": {"n_instances": -5}},
                             "analysis.n_instances must be a positive integer"),
    "x_max-negative": ("sl", {"eos": {"variant": "polytropic", "a": 2, "b": 4},
                              "analysis": {"lambdas": [1.0], "x_max": -1}},
                       "analysis.x_max must be a positive finite number, got -1"),
    "polytropic-without-a": ("sl", {"eos": {"variant": "polytropic", "b": 4}},
                             "eos.a is required"),
    "eos-null-Gamma": ("scaled", {"eos": {"variant": "polytrope", "Gamma": None}},
                       "eos.Gamma must be"),
    "formats-removed": ("spectrum", {"output": {"formats": ["xml"]}},
                        "unknown key(s) ['formats'] in output block"),
    "output-is-a-file": ("transform-check", {"output": {"directory": THIS_CONFIG}},
                         "output.directory"),
    "n_trunc-huge": ("spectrum", {"analysis": {"n_trunc": 10**30}},
                     "analysis.n_trunc must be at most 1000000, got 10000000000"),
    "i_start-huge": ("spectrum", {"analysis": {"i_start": 10**7}},
                     "analysis.i_start must be at most 1000000, got 10000000"),
    "n_instances-huge": ("transform-check", {"analysis": {"n_instances": 10**6}},
                         "analysis.n_instances must be at most 10000, got 1000000"),
    # on this shifted-potential layer the depth falls like exp(-sqrt(3)*X), so
    # it reaches 1e-7 R_star, a decade above the envelope's floor, at X = 8.9
    "x_max-past-envelope": ("sl", {"eos": {"variant": "polytropic", "a": 1, "b": 3},
                                   "analysis": {"lambdas": [1.0], "x_max": 60}},
                            "analysis.x_max must be below 8.9056 for this layer"),
    "lambdas-negative-sl": ("sl", {"eos": {"variant": "polytropic", "a": 2, "b": 4},
                                   "analysis": {"lambdas": [1.0, -0.5]}},
                            "analysis.lambdas must be positive for sl"),
}


def _removed_key_probe(sub, block, key, value, variant=None):
    fields = {key: value} if variant is None else {"variant": variant, key: value}
    where = block if variant is None else f"eos ({variant})"
    name = f"removed-{block}.{key}" if variant is None else f"removed-eos.{variant}.{key}"
    return name, (sub, {block: fields}, f"unknown key(s) ['{key}'] in {where} block")


# keys that no longer exist: the eos variant alone fixes the shell model,
# the section fixes its shell count, ppmodes searches below the model edge
# at the default certificate tolerance, and only the command line names
# the subcommand
PROBES.update(_removed_key_probe(*probe) for probe in [
    ("spectrum", "model", "N", 5000),
    ("spectrum", "analysis", "subcommand", "spectrum"),
    *(("spectrum", "eos", key, value, variant) for variant in ("limit", "hse")
      for key, value in (("profile", "constant"), ("Gamma", 2.0), ("c", 1.0))),
    *(("ppmodes", "analysis", key, value) for key, value in
      (("tol", 1e-6), ("edge", -1.0), ("window", 1.0), ("binding", "repulsive")))])


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_malformed_config_exits_1(tmp_path, capsys, probe):
    sub, blocks, text = PROBES[probe]
    cfg = tmp_path / "cfg.json"
    output = {"directory": str(tmp_path / "out"), **blocks.get("output", {})}
    if output["directory"] == THIS_CONFIG:
        output["directory"] = str(cfg)
    cfg.write_text(json.dumps({"schema": 1, **blocks, "output": output}))
    assert cli.run(sub, str(cfg)) == 1
    err = capsys.readouterr().err
    assert text in err
    assert "Traceback" not in err
    # a refused config writes no artifact
    out = tmp_path / "out"
    assert not out.is_dir() or not any(out.iterdir())


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


@pytest.mark.parametrize("model_block, interval", [
    ({}, (1.6, 3.2 + 8.0 / 15.0)),
    ({"eta": 0.4, "gamma": 2.7, "zeta": 2.0}, None),
], ids=["eta0.5", "eta0.4-zeta2"])
def test_hse_spectrum_fills_its_interval(tmp_path, capsys, model_block, interval):
    # the hse specific pressure tends to q/(1-q) of the limit law's,
    # q = eta**gamma, which moves and narrows the essential interval
    cfg = write_config(tmp_path / "cfg.json", model=model_block, eos={"variant": "hse"},
                       analysis={"n_trunc": 600, "i_start": 16},
                       output={"directory": str(tmp_path / "out")})
    assert cli.run("spectrum", cfg) == 0
    art = json.loads((tmp_path / "out" / "fill_report.json").read_text())
    assert art["fills"] is True and art["n_outliers"] == 0
    if interval is not None:
        assert art["interval"] == pytest.approx(interval, rel=1e-14)
    capsys.readouterr()


def test_hse_jost_matches_the_plane_wave(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", eos={"variant": "hse"},
                       analysis={"n_trunc": 2000, "i_start": 16,
                                 "lambdas": [2.0, 2.667, 3.5]},
                       output={"directory": str(out)})
    assert cli.run("jost", cfg) == 0
    art = json.loads((out / "jost.json").read_text())
    assert [f["lambda"] for f in art["fits"]] == [2.0, 2.667, 3.5]
    assert all(f["theta_error"] < 1e-9 for f in art["fits"])
    # the default energies are the centre and the midpoints of this
    # model's interval [1.6, 3.733]
    cfg = write_config(tmp_path / "default.json", eos={"variant": "hse"},
                       analysis={"n_trunc": 2000, "i_start": 16},
                       output={"directory": str(tmp_path / "default")})
    capsys.readouterr()
    assert cli.run("jost", cfg) == 0
    art = json.loads((tmp_path / "default" / "jost.json").read_text())
    assert [f["lambda"] for f in art["fits"]] == pytest.approx([32 / 15, 8 / 3, 3.2],
                                                               abs=1e-12)
    assert all(f["theta_error"] < 1e-9 for f in art["fits"])
    # an energy of the limit law's interval lies outside this one
    cfg = write_config(tmp_path / "limit.json", eos={"variant": "hse"},
                       analysis={"n_trunc": 2000, "i_start": 16, "lambdas": [-1.6]},
                       output={"directory": str(tmp_path / "limit")})
    capsys.readouterr()
    assert cli.run("jost", cfg) == 1
    err = capsys.readouterr().err
    assert "lam=-1.6 is not interior to (1.6" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("eta, gamma", [(0.5, 1e-300), (0.5, 1e-7), (0.9999, 5e-324)])
def test_slow_hse_tail_sum_exits_1(tmp_path, capsys, eta, gamma):
    # the tail sum needs ~92/(gamma*ln(1/eta)) terms; more than 1e5 are
    # refused before anything of that size is allocated, also where
    # gamma*ln(1/eta) underflows to zero
    cfg = write_config(tmp_path / "cfg.json", model={"eta": eta, "gamma": gamma},
                       eos={"variant": "hse"},
                       output={"directory": str(tmp_path / "out")})
    t0 = time.perf_counter()
    with np.errstate(all="ignore"):
        assert cli.run("spectrum", cfg) == 1
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert f"gamma {gamma!r}, eta {eta!r}" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("analysis, count", [({"n_trunc": 40}, 2),
                                             ({"n_trunc": 2500, "b": -0.32}, 0)],
                         ids=["two-modes", "repulsive"])
def test_ppmodes_writes_a_short_ladder_without_a_fit(tmp_path, capsys, analysis, count):
    # fewer than three bound modes leave no ladder to fit; the job once
    # exited 1 and wrote nothing, though the count is itself the result
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", analysis=analysis,
                       output={"directory": str(out)})
    assert cli.run("ppmodes", cfg) == 0
    assert f"ppmodes: count={count} ladder_slope=none" in capsys.readouterr().out
    art = json.loads((out / "ppmodes.json").read_text())
    assert art["count"] == count
    assert art["ladder_slope"] is None and art["ladder_r_squared"] is None
    assert len((out / "ppmodes.csv").read_text().splitlines()) == 2 + count


#: the eos variants each subcommand runs on, and a valid eos block of each
_EOS_OF = {"spectrum": ("limit", "hse", "polytrope"), "jost": ("limit", "hse"),
           "ppmodes": ("limit",), "scaled": ("polytrope",),
           "sl": ("polytropic", "linear_thermal")}
_EOS_BLOCKS = {"limit": {}, "hse": {}, "polytrope": {"Gamma": 3.0},
               "polytropic": {"a": 2, "b": 4}, "linear_thermal": {"a": 1, "b": 4, "c": 2.5}}


@pytest.mark.parametrize("sub, variant", [
    pytest.param(sub, variant, id=f"{sub}-{variant}")
    for sub, allowed in _EOS_OF.items() for variant in _EOS_BLOCKS if variant not in allowed])
def test_subcommand_refuses_a_foreign_eos(tmp_path, capsys, sub, variant):
    # ppmodes' theorem model carries the limit pressure law, and once ran
    # it silently under any other variant; jost ran the raw polytrope
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", eos={"variant": variant, **_EOS_BLOCKS[variant]},
                       analysis={"n_trunc": 1200, "lambdas": [1.0]},
                       output={"directory": str(out)})
    assert cli.run(sub, cfg) == 1
    err = capsys.readouterr().err
    assert err == f"error: {sub} needs eos.variant {' or '.join(_EOS_OF[sub])}, got {variant!r}\n"
    assert not os.listdir(out)


@pytest.mark.parametrize("n_trunc", [200, 1200])
def test_jost_refuses_the_raw_polytrope(tmp_path, capsys, n_trunc):
    # the raw polytrope section is graded: at n_trunc 200 jost once fitted
    # theta ~ 1e-17 against 2.09, 1.57 and 1.05, and at 1200 it overflowed
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", eos={"variant": "polytrope"},
                       analysis={"n_trunc": n_trunc}, output={"directory": str(out)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run("jost", cfg) == 1
    err = capsys.readouterr().err
    assert "eos.variant" in err and "Traceback" not in err
    assert not os.listdir(out)


def test_hse_shell_with_subnormal_widths_runs_quietly(tmp_path, capsys):
    # at gamma 0.00133 a shell mass outlives its width, which underflows to
    # a subnormal past shell 1040: rho overflows, silently, and reaches no
    # artifact
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", eos={"variant": "hse"},
                       model={"gamma": 0.00133}, analysis={"n_trunc": 1100, "i_start": 16},
                       output={"directory": str(out)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run("spectrum", cfg) == 0
    assert capsys.readouterr().err == ""
    assert_artifacts_finite(out)


@pytest.mark.parametrize("n_trunc", [2, 8])
def test_jost_short_section_exits_1(tmp_path, capsys, n_trunc):
    cfg = write_config(tmp_path / "cfg.json",
                       analysis={"n_trunc": n_trunc, "i_start": 16},
                       output={"directory": str(tmp_path / "out")})
    assert cli.run("jost", cfg) == 1
    err = capsys.readouterr().err
    assert "fit window too small" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("sub,analysis", [
    ("jost", {"n_trunc": 3000, "i_start": 16, "lambdas": [-1.1, 0.3, 1.7]}),
    ("ppmodes", {"n_trunc": 2500})])
def test_discrete_artifacts_byte_identical_across_runs(tmp_path, capsys, sub, analysis):
    cfg = write_config(tmp_path / "cfg.json", analysis=analysis)
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli.run(sub, cfg, argv_extra=["--out", str(out)]) == 0
        blobs.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out))})
    assert sorted(blobs[0]) == [f"{sub}.csv", f"{sub}.json"]
    assert blobs[0] == blobs[1]
    capsys.readouterr()


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
    assert "scaled needs eos.variant polytrope, got 'limit'" in capsys.readouterr().err


def test_spectrum_refuses_graded_section(tmp_path, capsys):
    # the raw polytrope operator is graded over tens of decades; an
    # absolute certificate tolerance cannot resolve its small eigenvalues.
    # At n=30 the smallest eigenvalue, 4.45, would be certified to +-0.86.
    for n in (300, 30):
        out = tmp_path / f"out{n}"
        cfg = write_config(tmp_path / "cfg.json",
                           eos={"variant": "polytrope", "Gamma": 2.0},
                           analysis={"n_trunc": n, "i_start": 1},
                           output={"directory": str(out)})
        assert cli.run("spectrum", cfg) == 1
        err = capsys.readouterr().err
        assert "the section is graded" in err
        assert "run the scaled subcommand" in err
        assert not (out / "eigenvalues.csv").exists()


def test_spectrum_certifies_a_nearly_scalar_section(tmp_path, capsys):
    # every eigenvalue lies within 6.3e-9 of 4.0, so 1e-10 of the span is
    # below the spacing of doubles there; the tolerance floor keeps the
    # certificate satisfiable
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", model={"eta": 0.05, "gamma": 3.5345},
                       eos={"variant": "polytrope"},
                       analysis={"n_trunc": 188, "i_start": 18},
                       output={"directory": str(out)})
    assert cli.run("spectrum", cfg) == 0
    assert "spectrum: n=188" in capsys.readouterr().out
    art = json.loads((out / "fill_report.json").read_text())
    assert art["n_values"] == 188
    rows = (out / "eigenvalues.csv").read_text().splitlines()[2:]
    assert len(rows) == 188
    assert all(abs(float(r) - 4.0) < 1e-8 for r in rows)


@pytest.mark.parametrize("model_block, Gamma, analysis", [
    ({"eta": 0.5, "gamma": 2.0}, 2.8, {}),
    ({"eta": 0.3, "gamma": 1.5}, 1.3, {"n_trunc": 900})], ids=["Gamma2.8", "Gamma1.3"])
def test_scaled_runs_where_the_raw_coupling_overflows(tmp_path, capsys, model_block, Gamma,
                                                      analysis):
    # the raw couplings times nu**I once overflowed (inf, or 0*inf = NaN);
    # the closed form of mu forms no power of eta at all
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", model=model_block,
                       eos={"variant": "polytrope", "Gamma": Gamma}, analysis=analysis,
                       output={"directory": str(out)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run("scaled", cfg) == 0
    assert capsys.readouterr().err == ""
    assert_artifacts_finite(out)
    for row in json.loads((out / "scaled.json").read_text())["frequencies"]:
        assert row["displacement_rate"] == pytest.approx(row["theory_displacement_rate"],
                                                         rel=1e-12)


def test_default_polytrope_spectrum_points_to_scaled(tmp_path, capsys):
    # its couplings overflow past shell 1020; the Gershgorin bounds went
    # NaN, the graded refusal never fired, and the job exited 2 after
    # seven RuntimeWarnings
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", eos={"variant": "polytrope"},
                       output={"directory": str(out)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run("spectrum", cfg) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "the section is graded" in err and "run the scaled subcommand" in err
    assert not os.listdir(out)


@pytest.mark.parametrize("model_block, Gamma, spectrum_rc, scaled_rc", [
    ({"eta": 0.5, "gamma": 2.0}, 2.0, 1, 0),
    ({"eta": 0.05, "gamma": 3.5345}, 2.0, 0, 1),
    ({"gamma": 2.5}, 2.333333333333333, 0, 1)],
    ids=["e3-1", "e3+0.53", "e3-ulp"])
def test_graded_refusal_names_scaled_only_where_it_runs(tmp_path, capsys, model_block,
                                                        Gamma, spectrum_rc, scaled_rc):
    # scaled rescales a polytrope whose couplings grow (e3 < 0), and spectrum
    # points there; a decaying one (e3 > 0) was once pointed there too,
    # which refuses it, and spectrum now runs it itself.  An e3 of -4.4e-16,
    # a rounding of 0, was once read as growing; it settles like e3 = 0
    cfg = write_config(tmp_path / "cfg.json", model=model_block,
                       eos={"variant": "polytrope", "Gamma": Gamma},
                       analysis={"n_trunc": 1000, "i_start": 18},
                       output={"directory": str(tmp_path / "out")})
    assert cli.run("spectrum", cfg) == spectrum_rc
    err = capsys.readouterr().err
    if spectrum_rc:
        assert len(err.splitlines()) == 1
        assert "the section is graded" in err and "run the scaled subcommand" in err
    else:
        assert err == ""
    assert cli.run("scaled", cfg) == scaled_rc
    capsys.readouterr()


@pytest.mark.parametrize("model_block, Gamma, n_trunc, i_start, interval", [
    ({"eta": 0.05, "gamma": 3.5345}, 2.0, 1000, 18, [4.0, 4.0]),
    ({}, 3.0, 500, 16, [-23.0, 1.0]),
    ({"gamma": 2.2}, 2.666666666666667, 500, 16, [-22.351699387022165, 0.5128011470854208]),
    ({"gamma": 2.5}, 2.333333333333333, 500, 16, [-22.63192632217428, -0.43339350879015726])],
    ids=["e3+0.53", "e3=0", "e3+ulp", "e3-ulp"])
def test_polytrope_spectrum_fills_its_own_interval(tmp_path, capsys, model_block, Gamma,
                                                    n_trunc, i_start, interval):
    # decaying couplings (e3 > 0) leave the point 4*Lambda_star, settling
    # ones (e3 = 0) the band c +- 2*mu_inf.  The coupling P/M/width once
    # gave 0/0 = NaN past shell 250 at e3 = +0.53, and the limit law's
    # interval (-3.2, 3.2) once counted 362 of the e3 = 0 values outliers.
    # e3 = +-4.4e-16 is a rounding of 0: read by its sign, the e3+ulp
    # section once reported the point 4*Lambda_star with all 500 outliers
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", model=model_block,
                       eos={"variant": "polytrope", "Gamma": Gamma},
                       analysis={"n_trunc": n_trunc, "i_start": i_start},
                       output={"directory": str(out)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run("spectrum", cfg) == 0
    assert capsys.readouterr().err == ""
    art = json.loads((out / "fill_report.json").read_text())
    assert art["interval"] == interval
    assert art["n_outliers"] == 0 and art["n_values"] == n_trunc
    assert_artifacts_finite(out)


def test_nan_bound_for_an_artifact_exits_numerical(tmp_path, capsys, monkeypatch):
    # a Jost fit that comes back NaN (an overflowing tail recurrence does
    # that) must not reach an artifact
    real = cli.spectra.jost_verify
    monkeypatch.setattr(cli.spectra, "jost_verify", lambda op, lam: dataclasses.replace(
        real(op, lam), theta_fit=math.nan))
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json",
                       analysis={"n_trunc": 200, "i_start": 16, "lambdas": [0.8]},
                       output={"directory": str(out)})
    assert cli.run("jost", cfg) == 2
    assert ("non-finite value nan in artifact jost.csv, column theta_fit"
            in capsys.readouterr().err)
    # no artifact of the job is written
    assert list(out.iterdir()) == []


def test_non_finite_scaled_section_exits_numerical(tmp_path, capsys, monkeypatch):
    # a NaN in the scaled diagonal is refused before the band report
    # counts a pivot, and no artifact of the job is written
    real = cli.polytrans.build_scaled_system

    def with_nan(pd, n):
        system = real(pd, n)
        diag = system.diag.copy()
        diag[17] = math.nan
        return dataclasses.replace(system, diag=diag)
    monkeypatch.setattr(cli.polytrans, "build_scaled_system", with_nan)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", eos={"variant": "polytrope"},
                       analysis={"n_trunc": 200}, output={"directory": str(out)})
    assert cli.run("scaled", cfg) == 2
    assert "tridiagonal section has a non-finite entry in row 17" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_json_infinity_only_under_sentinels():
    text = cli._render_json("a.json", {"checks": [{"tail_ratio": np.inf}],
                                       "l2_growth": {"max_growth_factor": -np.inf}}, "h")
    art = json.loads(text)
    assert art["config_sha256"] == "h"
    assert art["checks"][0]["tail_ratio"] == "inf"
    assert art["l2_growth"]["max_growth_factor"] == "-inf"
    for bad, field in (({"slope": np.inf}, "slope"),
                       ({"traces": [{"tail_ratio": np.nan}]}, "traces[0].tail_ratio")):
        with pytest.raises(NumericalError, match=re.escape(f"b.json, field {field}")):
            cli._render_json("b.json", bad, "h")


# --- CSV rendering: column by column, byte for byte the per-cell format


def _reference_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def reference_csv(table, h):
    """The CSV text as formatted one cell at a time."""
    cols = [np.asarray(c) for c in table.values()]
    lines = [f"# config sha256: {h}", ",".join(table)]
    lines += [",".join(_reference_cell(v) for v in row) for row in zip(*cols)]
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, 2.0, -3.0,
               1.7976931348623157e308, -1.7976931348623157e308]
INT64_LIMITS = [-2**63, -2**63 + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]


def _column(elements, dtype):
    return lambda n: st.lists(elements, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=dtype))


COLUMNS = {
    "float64": _column(st.one_of(st.sampled_from(EDGE_FLOATS),
                                 st.floats(allow_nan=False, allow_infinity=False)),
                       np.float64),
    "float32": _column(st.floats(width=32, allow_nan=False, allow_infinity=False),
                       np.float32),
    "int64": _column(st.one_of(st.sampled_from(INT64_LIMITS),
                               st.integers(-2**63, 2**63 - 1)), np.int64),
    "bool": _column(st.booleans(), bool),
    # handlers may hand over lists of Python numbers, as the jost table does
    "list": lambda n: st.lists(st.one_of(st.integers(-10**6, 10**6),
                                         st.floats(allow_nan=False, allow_infinity=False)),
                               min_size=n, max_size=n),
}


@st.composite
def csv_tables(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=6))
    return {f"{kind}_{i}": draw(COLUMNS[kind](n)) for i, kind in enumerate(kinds)}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=csv_tables())
def test_csv_matches_per_cell_format(table):
    assert cli._render_csv("t.csv", table, "h") == reference_csv(table, "h")


def test_csv_edge_values_match_per_cell_format():
    table = {"f64": np.array(EDGE_FLOATS),
             "f32": np.array([2.0, 1e16, 1e-5, 0.1, -0.0, 3.4028234663852886e38,
                              1.401298464324817e-45, 1.0, -2.5, 7.0], dtype=np.float32),
             "i64": np.array(INT64_LIMITS + [42, -42, 10**18], dtype=np.int64),
             "b": np.arange(10) % 3 == 0,
             "py": [True, 2, -0.0, 2.0, 5e-324, 1e16, 1e-5, 3, 0.5, -1]}
    text = cli._render_csv("t.csv", table, "h")
    assert text == reference_csv(table, "h")
    rows = text.splitlines()[2:]
    assert rows[0] == "-0.0,2.0,-9223372036854775808,true,1.0"
    assert rows[1] == "0.0,1.0000000272564224e+16,-9223372036854775807,false,2.0"
    assert rows[2] == "5e-324,9.999999747378752e-06,-1,false,-0.0"
    assert rows[5] == "1e+16,3.4028234663852886e+38,9223372036854775806,false,1e+16"
    assert rows[9] == "-1.7976931348623157e+308,7.0,1000000000000000000,true,-1.0"
    # no rows: the hash line and the header alone
    empty = {"a": np.empty(0), "b": np.empty(0, dtype=np.int64), "c": []}
    assert cli._render_csv("e.csv", empty, "h") == "# config sha256: h\na,b,c\n"
    assert reference_csv(empty, "h") == "# config sha256: h\na,b,c\n"


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_csv_non_finite_guard_names_artifact_column_and_row(dtype, bad):
    col = np.arange(6, dtype=dtype)
    col[3] = bad
    table = {"i": np.arange(6), "ok": np.ones(6), "y": col}
    with pytest.raises(NumericalError, match=re.escape(
            f"non-finite value {float(bad)!r} in artifact t.csv, column y, row 3")):
        cli._render_csv("t.csv", table, "h")


def test_csv_length_guard_names_artifact_and_lengths():
    table = {"X": np.zeros(4), "Y": [1.0, 2.0, 3.0], "ok": np.zeros(4, dtype=bool)}
    with pytest.raises(ValidationError, match=re.escape(
            "CSV columns of artifact trace_0.csv must share a length, "
            "got X 4, Y 3, ok 4")):
        cli._render_csv("trace_0.csv", table, "h")


# --- the write: every artifact or none


def test_unwritable_artifact_exits_1_without_traceback(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "transform_check.json").mkdir(parents=True)
    cfg = write_config(tmp_path / "cfg.json", analysis={"rational": True},
                       output={"directory": str(out)})
    assert cli.run("transform-check", cfg) == 1
    err = capsys.readouterr().err
    assert "output.directory" in err and "cannot write transform_check.json" in err
    assert "Traceback" not in err
    assert sorted(os.listdir(out)) == ["transform_check.json"]
    assert os.listdir(out / "transform_check.json") == []


@pytest.mark.parametrize("blocker", ["fill_report.json", ".fill_report.json.partial"])
def test_failed_write_leaves_no_artifact(tmp_path, spectrum_cfg, capsys, blocker):
    # eigenvalues.csv comes first and could be written; the set is whole or absent
    out = tmp_path / "out"
    (out / blocker).mkdir(parents=True)
    assert cli.run("spectrum", spectrum_cfg, argv_extra=["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"output.directory {str(out)!r}: cannot write fill_report.json" in err
    assert sorted(os.listdir(out)) == [blocker]
    # once the blocker is gone the same job writes both, and no partial
    (out / blocker).rmdir()
    assert cli.run("spectrum", spectrum_cfg, argv_extra=["--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["eigenvalues.csv", "fill_report.json"]
    capsys.readouterr()


def _sl_config(tmp_path, **analysis):
    return write_config(tmp_path / "cfg.json",
                        eos={"variant": "polytropic", "a": 2, "b": 4},
                        analysis={"lambdas": [1.0], "x_max": 60.0, **analysis},
                        output={"directory": str(tmp_path / "out")})


def test_sl_trace_csv_layout(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.run("sl", _sl_config(tmp_path, rtol=1e-8)) == 0
    text = capsys.readouterr().out
    assert "sl: route=integrable_canonical_potential applies=True" in text
    assert "diverges=True" in text
    rows = (out / "trace_0.csv").read_text().splitlines()
    assert rows[1] == "X,Y,Y_prime"
    case = json.loads((out / "sl_case.json").read_text())
    assert case["route"] == "integrable_canonical_potential"
    res = json.loads((out / "sl.json").read_text())
    assert res["traces"][0]["regularity"]["analytic_power"] == 2.5
    prop = res["traces"][0]["propagator"]
    assert prop["method"] == "magnus6"
    assert prop["substeps"] >= 4 and prop["substeps"] & (prop["substeps"] - 1) == 0
    levels = prop["levels"]
    # 24 points per wavelength ask for 229 points over x_max 60, so the
    # grid has the floor's 250; 8 steps on each of its 249 intervals come
    # nearest in log2 to the 2*999 of the first level
    assert prop["grid_points"] == slform.MIN_GRID == 250 == len(rows) - 2
    assert levels[0] == 8 and levels[-1] == prop["substeps"]
    assert all(b == 2 * a for a, b in zip(levels, levels[1:]))
    assert prop["steps"] == 249 * sum(levels)
    assert 0.0 < prop["error_estimate"] <= 1e-8


@pytest.mark.parametrize("eos, split", [
    ({"variant": "polytropic", "a": 2, "b": 4}, "zero"),
    ({"variant": "linear_thermal", "a": 1, "b": 4, "c": 2.5}, "q0")],
    ids=["polytropic", "linear_thermal"])
def test_sl_trace_csv_rebuilds_the_dropped_fields(tmp_path, capsys, eos, split):
    # trace_k.csv holds only what the solver computed; the radius x and
    # the regularity field R, which reads the ratio xi = Y/(pw)**(1/4),
    # follow from its columns bit for bit through the library's closed
    # forms
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", eos=eos,
                       analysis={"lambdas": [1.0], "x_max": 60.0},
                       output={"directory": str(out)})
    assert cli.run("sl", cfg) == 0
    capsys.readouterr()
    rows = (out / "trace_0.csv").read_text().splitlines()[2:]
    X, Y, Y_prime = np.array([[float(c) for c in row.split(",")] for row in rows]).T
    params = {k: v for k, v in eos.items() if k != "variant"}
    layer = cli._SL_EOS[eos["variant"]](**params)
    form = slform.CanonicalForm(layer)
    tr = slform.integrate_canonical(form, 1.0, X_max=60.0)
    for col, ref in ((X, tr.X_grid), (Y, tr.Y), (Y_prime, tr.Y_prime)):
        assert np.array_equal(col, ref)
    x = form.x_of_X(X)
    assert np.array_equal(x, tr.x_grid)
    rebuilt = slform.CanonicalTrace(lam=1.0, X_grid=X, Y=Y, Y_prime=Y_prime, x_grid=x)
    assert np.array_equal(slform.trace_regularity(rebuilt, layer),
                          slform.trace_regularity(tr, layer))
    res = json.loads((out / "sl.json").read_text())["traces"][0]
    assert res["wkb"]["split"] == split
    assert "delta_r_lower" not in res["l2_growth"]


def test_sl_artifacts_byte_identical_across_runs(tmp_path, capsys):
    cfg = _sl_config(tmp_path)
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli.run("sl", cfg, argv_extra=["--out", str(out)]) == 0
        blobs.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out))})
    assert sorted(blobs[0]) == ["sl.json", "sl_case.json", "trace_0.csv"]
    assert blobs[0] == blobs[1]
    capsys.readouterr()


def test_sl_unreachable_rtol_exits_numerical(tmp_path, capsys):
    # roundoff in the products of the step matrices floors the estimate
    # near 1e-13, so the doubling stalls and the job exits 2 quickly
    t0 = time.perf_counter()
    assert cli.run("sl", _sl_config(tmp_path, rtol=1e-15)) == 2
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert "analysis.rtol 1e-15" in err and "stalls" in err
    # sl_case.json was ready before the trace failed; it is not written
    assert list((tmp_path / "out").iterdir()) == []


def test_sl_short_trace_names_x_max(tmp_path, capsys):
    # at x_max 0.5 the WKB window still lies where Q > lambda; the fit is
    # refused before any fractional power of a negative difference
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.run("sl", _sl_config(tmp_path, x_max=0.5)) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "sl at lambda 1.0 with analysis.x_max 0.5" in err
    assert "lam - V2 must stay positive" in err
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert list((tmp_path / "out").iterdir()) == []
    # so a report on that directory finds nothing of the failed job
    assert cli.run("report", _sl_config(tmp_path)) == 0
    assert "report: aggregated 0 artifact(s)" in capsys.readouterr().out


def test_sl_grid_past_the_size_bound_exits_1(tmp_path, capsys):
    # 24 points per wavelength over X = 60 at lambda 2e7 is 1.02e6 points;
    # the job is refused before the classifier or any array is built
    t0 = time.perf_counter()
    assert cli.run("sl", _sl_config(tmp_path, lambdas=[1.0, 2e7])) == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "analysis.lambdas [20000000.0] with analysis.x_max 60.0" in err
    assert "more than 1000000 points" in err and "Traceback" not in err
    assert not (tmp_path / "out").is_dir() or list((tmp_path / "out").iterdir()) == []


def test_report_aggregates_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", analysis={"rational": True},
                       output={"directory": str(out)})
    assert cli.run("transform-check", cfg) == 0
    assert cli.run("report", cfg) == 0
    assert "report: aggregated 1 artifact(s)" in capsys.readouterr().out
    rep = json.loads((out / "report.json").read_text())
    assert "transform_check.json" in rep["artifacts"]
    md = (out / "report.md").read_text()
    assert "## transform_check.json" in md
    assert "config sha256:" in md


# --- any config: exit 0, 1 or 2, never a traceback, never a NaN at exit 0

# the two documented infinite sentinels, and transform-check's float-mode
# residual, a string that reads "inf" once the graded factors overflow
INF_FIELDS = {"tail_ratio", "max_growth_factor", "max_residual"}
JUNK = st.sampled_from(["x", None, True, [1.0], {}, float("nan"), float("-inf"),
                        -1, 0, 2.5])


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _opt(strategy):
    return st.none() | strategy


@st.composite
def cli_configs(draw, sub):
    model = {"eta": draw(_num(0.05, 0.95)), "gamma": draw(_num(0.5, 4.0)),
             "zeta": draw(st.sampled_from([0.0, 0.0, -1.0, 2.0]))}
    eos, ana = {}, {}
    if sub in ("spectrum", "jost"):
        eos = {"variant": draw(st.sampled_from(["limit", "hse", "polytrope"]))}
        if eos["variant"] == "polytrope":
            eos["Gamma"] = draw(_num(0.5, 4.0))
        ana = {"n_trunc": draw(st.integers(2, 200)), "i_start": draw(st.integers(1, 20)),
               "pad": draw(_num(0.0, 0.2)),
               "lambdas": draw(st.lists(_num(-2.5, 2.5), max_size=3))}
    elif sub == "ppmodes":
        ana = {"n_trunc": draw(st.integers(2, 200)), "alpha": draw(_num(0.55, 0.95)),
               "p": draw(_num(0.34, 0.6)), "spacing": draw(_num(0.5, 8.0)),
               "b": draw(_opt(_num(0.0, 2.0)))}
    elif sub == "transform-check":
        ana = {"n_instances": draw(st.integers(1, 4)), "rational": draw(st.booleans()),
               "seed": draw(st.integers(0, 2**31))}
    elif sub == "scaled":
        eos = {"variant": "polytrope", "Gamma": draw(_num(1.05, 4.0))}
        ana = {"n_trunc": draw(st.integers(2, 200)), "i_min": draw(_opt(st.integers(1, 200))),
               "lambdas": draw(st.lists(_num(-3.0, 3.0), max_size=2))}
    elif sub == "sl":
        if draw(st.booleans()):
            eos = {"variant": "polytropic", "a": draw(_num(0.5, 4.0)),
                   "b": draw(_num(1.5, 5.0))}
        else:
            eos = {"variant": "linear_thermal", "a": draw(_num(1.0, 3.0)),
                   "b": draw(_num(1.0, 4.0)), "c": draw(_num(1.0, 6.0))}
        ana = {"lambdas": [draw(_num(0.2, 3.0))], "x_max": draw(_num(0.5, 20.0)),
               "rtol": draw(st.sampled_from([1e-6, 1e-8]))}
    cfg = {"schema": 1, "model": model, "eos": eos, "analysis": ana}
    # one job in four carries one value of the wrong kind
    block = draw(st.sampled_from(["model", "eos", "analysis", None, None, None, None,
                                  None, None, None, None, None]))
    if block and cfg[block]:
        cfg[block][draw(st.sampled_from(sorted(cfg[block])))] = draw(JUNK)
    return cfg


def _walk_json(v, name, key=None):
    if isinstance(v, dict):
        for k, x in v.items():
            _walk_json(x, name, k)
    elif isinstance(v, list):
        for x in v:
            _walk_json(x, name, key)
    elif isinstance(v, float):
        assert math.isfinite(v), (name, key, v)
    elif v in ("nan", "inf", "-inf"):
        assert v != "nan" and key in INF_FIELDS, (name, key, v)


def assert_artifacts_finite(out):
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            if name.endswith(".json"):
                _walk_json(json.load(fh), name)
            elif name.endswith(".csv"):
                for row in fh.read().splitlines()[2:]:
                    for cell in row.split(","):
                        assert cell in ("true", "false") or math.isfinite(float(cell)), \
                            (name, row)


# derandomized: every run draws the same 30 configs per subcommand
@pytest.mark.parametrize("sub", sorted(cli._HANDLERS))
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_config_exits_0_1_or_2(sub, data):
    cfg = data.draw(cli_configs(sub))
    with tempfile.TemporaryDirectory() as tmp:
        cfg["output"] = {"directory": os.path.join(tmp, "out")}
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        with np.errstate(all="ignore"):
            rc = cli.run(sub, path)
        assert rc in (0, 1, 2)
        if rc == 0:
            assert_artifacts_finite(cfg["output"]["directory"])


# lists the scipy modules a fresh interpreter holds after running the jobs
_FRESH_JOBS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from lawe_spectra import cli
for sub, cfg in json.loads(sys.argv[2]):
    if cli.run(sub, cfg) != 0:
        sys.exit(f"{sub} job failed")
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


@pytest.mark.parametrize("subs, loads_lapack", [
    (("sl", "transform-check"), False), (("spectrum",), False), (("scaled",), False),
    (("jost",), True)],
    ids=["sl+transform-check", "spectrum", "scaled", "jost"])
def test_scipy_is_loaded_by_the_first_lapack_call(tmp_path, subs, loads_lapack):
    # sl and transform-check never call LAPACK, so their processes skip
    # the scipy import; a spectrum section with a constant tail is solved
    # without LAPACK, scaled counts its band report by Sturm counts, and
    # jost's tail recurrence loads scipy in its band solve
    configs = {"sl": _sl_config(tmp_path),
               "spectrum": write_config(tmp_path / "spectrum.json",
                                        analysis={"n_trunc": 120, "i_start": 16}),
               "scaled": write_config(tmp_path / "scaled.json",
                                      eos={"variant": "polytrope"},
                                      analysis={"n_trunc": 200}),
               "jost": write_config(tmp_path / "jost.json",
                                    analysis={"n_trunc": 200, "i_start": 16}),
               "transform-check": write_config(tmp_path / "tc.json")}
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    jobs = json.dumps([(sub, configs[sub]) for sub in subs])
    done = subprocess.run([sys.executable, "-c", _FRESH_JOBS, src, jobs], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    if loads_lapack:
        assert "scipy.linalg" in loaded
    else:
        assert loaded == []


#: one small job per subcommand and per ``sl`` route: (subcommand, config
#: blocks)
_FEEDER_JOBS = [
    ("spectrum", {"analysis": {"n_trunc": 120}}),
    ("jost", {"eos": {"variant": "hse"}, "analysis": {"n_trunc": 200}}),
    ("ppmodes", {"analysis": {"n_trunc": 600}}),
    ("scaled", {"eos": {"variant": "polytrope"}, "analysis": {"n_trunc": 200}}),
    ("transform-check", {"analysis": {"n_instances": 2, "rational": True}}),
    # only the float mode draws instances and calls similarity_check
    ("transform-check", {"analysis": {"n_instances": 2}}),
    ("sl", {"eos": {"variant": "polytropic", "a": 2, "b": 4},
            "analysis": {"lambdas": [1.0], "x_max": 40.0}}),
    ("sl", {"eos": {"variant": "linear_thermal", "a": 1, "b": 4, "c": 2.5},
            "analysis": {"lambdas": [1.0], "x_max": 40.0}}),
    ("sl", {"eos": {"variant": "linear_thermal", "a": 1, "b": 4, "c": 1.5},
            "analysis": {"lambdas": [1.0], "x_max": 40.0}}),
    ("report", {}),
]


def _public_code(lawe_spectra):
    """{code object: name} of every public function, and of every method
    and property written in the source of a public class; the methods a
    dataclass generates have no source file of their own."""
    public = {}
    for name in lawe_spectra.__all__:
        obj = getattr(lawe_spectra, name)
        if inspect.isfunction(obj):
            public[obj.__code__] = name
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = member.fget if isinstance(member, property) else member
                if inspect.isfunction(fn) and fn.__code__.co_filename == inspect.getfile(obj):
                    public[fn.__code__] = f"{name}.{attr}"
    return public


def test_every_public_function_feeds_a_job(tmp_path, capsys):
    # a function, method or property that no subcommand reaches serves no
    # result of the program: it belongs in tests/ as an oracle, or nowhere
    import lawe_spectra
    public = _public_code(lawe_spectra)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    out = str(tmp_path / "out")
    for k, (sub, blocks) in enumerate(_FEEDER_JOBS):
        cfg = write_config(tmp_path / f"cfg{k}.json", **blocks)
        sys.setprofile(profile)
        try:
            rc = cli.run(sub, cfg, argv_extra=["--out", out])
        finally:
            sys.setprofile(None)
        assert rc == 0, (sub, blocks, capsys.readouterr().err)
    capsys.readouterr()
    assert len(public) > 30
    assert sorted(name for code, name in public.items() if code not in called) == []
