"""Output checks against independent references, and artifact digests.

Each check rebuilds what the job computed from its config and compares
the job's artifacts with a reference that does not share the code
under test: LAPACK (``scipy.linalg.eigvalsh_tridiagonal``) for
eigenvalues, the closed-form Jost phase for ``jost``, the expected
classifier route for ``sl``, exact zero for rational residuals and the
theoretical displacement rate for ``scaled``.  Operators are assembled
with the library's public model/discrete/ppmodes functions.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from lawe_spectra import discrete, model, ppmodes, spectra


def artifact_digest(outdir):
    """(sha256 over the sorted artifact names and bytes, total bytes)."""
    h = hashlib.sha256()
    total = 0
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        total += len(data)
    return h.hexdigest(), total


def _read_csv(path):
    """Columns of a CLI CSV (provenance comment, header, rows) as strings."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# config sha256: "):
        raise ValueError(f"{os.path.basename(path)}: missing provenance line")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return {name: [r[k] for r in rows] for k, name in enumerate(header)}


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _floats(col):
    return np.array([float(v) for v in col])


def _span(op):
    lo, hi = spectra.gershgorin_interval(op.diag, op.offdiag)
    return hi - lo


def _limit_operator(cfg):
    m, ana = cfg["model"], cfg["analysis"]
    n, i_start = ana["n_trunc"], ana["i_start"]
    dist = model.build_mass_distribution(m["eta"], m["gamma"], N=n + i_start + 4)
    pd = model.build_pd_distribution(dist, model.gamma_profile(dist, "geometric"),
                                     pressure_mode="limit")
    return discrete.assemble_jacobi(pd, n, i_start=i_start)


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _check_spectrum(job, outdir):
    op = _limit_operator(job.config)
    vals = _floats(_read_csv(os.path.join(outdir, "eigenvalues.csv"))["lambda"])
    t0 = time.perf_counter()
    ref = eigvalsh_tridiagonal(op.diag, op.offdiag)
    ref_s = time.perf_counter() - t0
    _require(vals.size == ref.size, f"{vals.size} eigenvalues, LAPACK finds {ref.size}")
    err = float(np.max(np.abs(np.sort(vals) - ref))) / _span(op)
    _require(err <= 1e-9, f"eigenvalues differ from LAPACK by {err:.3e} of the span")
    fill = _read_json(os.path.join(outdir, "fill_report.json"))
    _require(fill["n_outliers"] == 0, f"{fill['n_outliers']} outliers")
    return ref_s


def _check_ppmodes(job, outdir):
    m, ana = job.config["model"], job.config["analysis"]
    dsp = ppmodes.construct_dsp(ana["alpha"], ana["p"], ana["spacing"], n=ana["n_trunc"])
    pd = ppmodes.theorem_model(dsp, eta=m["eta"], gamma=m["gamma"])
    op = discrete.assemble_jacobi(pd, dsp.extent, i_start=1)
    # the default window of detect_edge_eigenvalues: (glo - 1e-6*span,
    # edge - 1e-9*span] with span floored at one
    edge = op.scaling.interval[0]
    glo, ghi = spectra.gershgorin_interval(op.diag, op.offdiag)
    span = max(ghi - glo, 1.0)
    lo, hi = glo - 1e-6 * span, edge - 1e-9 * span
    t0 = time.perf_counter()
    ref = eigvalsh_tridiagonal(op.diag, op.offdiag, select="v", select_range=(lo, hi))
    ref_s = time.perf_counter() - t0
    cols = _read_csv(os.path.join(outdir, "ppmodes.csv"))
    vals, depths = _floats(cols["value"]), _floats(cols["depth"])
    _require(vals.size == ref.size, f"{vals.size} modes, LAPACK finds {ref.size}")
    _require(vals.size >= 10, f"only {vals.size} modes")
    err = float(np.max(np.abs(np.sort(vals) - np.sort(ref)))) / span
    _require(err <= 1e-9, f"modes differ from LAPACK by {err:.3e} of the span")
    _require(bool(np.all(np.diff(depths) < 0.0)), "depths not strictly decreasing")
    return ref_s


def _check_jost(job, outdir):
    m, ana = job.config["model"], job.config["analysis"]
    dist = model.build_mass_distribution(m["eta"], m["gamma"], N=8)
    sp = model.scaling_params(dist)
    c = sp.kappa * sp.lambda_star
    cols = _read_csv(os.path.join(outdir, "jost.csv"))
    lams, fits = _floats(cols["lambda"]), _floats(cols["theta_fit"])
    _require(list(lams) == [float(x) for x in ana["lambdas"]], "lambda column mismatch")
    for lam, fit in zip(lams, fits):
        err = abs(fit - math.acos((lam - sp.centre) / (2.0 * c)))
        _require(err < 1e-9, f"theta error {err:.3e} at lambda={lam!r}")
    return 0.0


def _check_sl(job, outdir):
    case = _read_json(os.path.join(outdir, "sl_case.json"))
    _require(case["route"] == job.expect["route"],
             f"route {case['route']}, expected {job.expect['route']}")
    _require(case["applies"] is True, "route does not apply")
    traces = _read_json(os.path.join(outdir, "sl.json"))["traces"]
    _require(len(traces) == len(job.config["analysis"]["lambdas"]), "missing traces")
    for tr in traces:
        reg, gr = tr["regularity"], tr["l2_growth"]
        _require(reg["within"] and reg["monotone"] and gr["diverges"],
                 f"lambda={tr['lambda']}: within={reg['within']} "
                 f"monotone={reg['monotone']} diverges={gr['diverges']}")
    return 0.0


def _check_transform(job, outdir):
    res = _read_json(os.path.join(outdir, "transform_check.json"))
    _require(res["rational"] is True and res["exact"] is True, "not an exact run")
    _require(res["max_residual"] == "0", f"residual {res['max_residual']}")
    _require(res["n_instances"] == job.config["analysis"]["n_instances"],
             "instance count mismatch")
    return 0.0


def _check_scaled(job, outdir):
    n = job.config["analysis"]["n_trunc"]
    cols = _read_csv(os.path.join(outdir, "scaled.csv"))
    for name, col in cols.items():
        _require(len(col) == n, f"scaled.csv has {len(col)} rows, expected {n}")
        _require(bool(np.all(np.isfinite(_floats(col)))), f"non-finite {name}")
    res = _read_json(os.path.join(outdir, "scaled.json"))
    _require(res["negated_band_report"]["n_values"] == n, "eigenvalue count mismatch")
    for row in res["frequencies"]:
        rate, theory = row["displacement_rate"], row["theory_displacement_rate"]
        _require(abs(rate - theory) <= 0.1 * abs(theory),
                 f"displacement rate {rate!r} vs theory {theory!r}")
    return 0.0


_CHECKS = {
    "spectrum": _check_spectrum,
    "ppmodes": _check_ppmodes,
    "jost": _check_jost,
    "sl": _check_sl,
    "transform-check": _check_transform,
    "scaled": _check_scaled,
}


def check(job, outdir):
    """(None, reference seconds) if the artifacts pass, else (message, 0)."""
    try:
        return None, _CHECKS[job.kind](job, outdir)
    except CheckFailed as exc:
        return str(exc), 0.0
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return f"unreadable artifacts: {type(exc).__name__}: {exc}", 0.0
