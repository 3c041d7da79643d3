"""Configuration-driven runner emitting reproducible CSV and JSON artifacts.

Config files are strict JSON with a versioned ``schema`` field; unknown
keys are rejected everywhere, so a typo cannot silently fall back to a
default.  Artifacts are byte-identical across runs with the same
effective configuration: floats are written in shortest round-trip
form, JSON keys are sorted, and every CSV opens with a comment line
carrying the sha256 hash of the effective config.

Exit codes: 0 success, 1 validation failure (message names the violated
precondition), 2 numerical failure (message includes the location).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import sys
from fractions import Fraction

import numpy as np

from .errors import ValidationError, NumericalError
from . import model, discrete, spectra, ppmodes, polytrans, slform


_TOP_KEYS = {"schema", "model", "eos", "analysis", "output"}
_MODEL_KEYS = {"eta", "gamma", "M_star", "R_star", "G", "zeta", "N"}
_EOS_KEYS = {
    "limit": {"profile", "Gamma", "c"},
    "hse": {"profile", "Gamma", "c"},
    "polytrope": {"Gamma", "C_star"},
    "polytropic": {"a", "b", "K", "R_delta"},
    "linear_thermal": {"a", "b", "c", "K0", "L0", "R_delta"},
}
_ANALYSIS_KEYS = {"subcommand", "lambdas", "n_trunc", "i_start", "i_min",
                  "pad", "seed", "threads", "rational", "n_instances",
                  "x_max", "rtol", "alpha", "p", "spacing", "b", "binding",
                  "edge", "window", "tol"}
_OUTPUT_KEYS = {"directory", "formats"}

_MODEL_DEFAULTS = {"eta": 0.5, "gamma": 2.0, "M_star": 1.0, "R_star": 1.0,
                   "G": 1.0, "zeta": 0.0, "N": None}
_ANALYSIS_DEFAULTS = {"subcommand": None, "lambdas": None, "n_trunc": None,
                      "i_start": None, "i_min": None, "pad": 0.05, "seed": 0,
                      "threads": None, "rational": False, "n_instances": None,
                      "x_max": 2000.0, "rtol": 1e-10, "alpha": 0.8, "p": 0.5,
                      "spacing": 5.0, "b": None, "binding": "attractive",
                      "edge": None, "window": None, "tol": None}
_OUTPUT_DEFAULTS = {"directory": "out", "formats": ["csv", "json"]}


def _reject_unknown(block, allowed, where):
    extra = sorted(set(block) - set(allowed))
    if extra:
        raise ValidationError(f"unknown key(s) {extra} in {where} block")


def load_config(path):
    """Parse and structurally validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be a JSON object")
    if cfg.get("schema") != 1:
        raise ValidationError(f"config schema must be 1, got {cfg.get('schema')!r}")
    _reject_unknown(cfg, _TOP_KEYS, "top-level")
    for name, allowed in (("model", _MODEL_KEYS), ("analysis", _ANALYSIS_KEYS),
                          ("output", _OUTPUT_KEYS)):
        block = cfg.get(name, {})
        if not isinstance(block, dict):
            raise ValidationError(f"{name} block must be a JSON object")
        _reject_unknown(block, allowed, name)
    eos = cfg.get("eos", {})
    if not isinstance(eos, dict):
        raise ValidationError("eos block must be a JSON object")
    variant = eos.get("variant", "limit")
    if variant not in _EOS_KEYS:
        raise ValidationError(
            f"eos variant must be one of {sorted(_EOS_KEYS)}, got {variant!r}")
    _reject_unknown(eos, _EOS_KEYS[variant] | {"variant"}, f"eos ({variant})")
    return cfg


def effective_config(cfg, args):
    """Overlay defaults and command-line overrides onto a parsed config."""
    eff = {
        "schema": 1,
        "model": {**_MODEL_DEFAULTS, **cfg.get("model", {})},
        "eos": {"variant": "limit", **cfg.get("eos", {})},
        "analysis": {**_ANALYSIS_DEFAULTS, **cfg.get("analysis", {})},
        "output": {**_OUTPUT_DEFAULTS, **cfg.get("output", {})},
    }
    if args.subcommand is not None:
        eff["analysis"]["subcommand"] = args.subcommand
    if args.seed is not None:
        eff["analysis"]["seed"] = int(args.seed)
    if args.rational:
        eff["analysis"]["rational"] = True
    if args.threads is not None:
        eff["analysis"]["threads"] = int(args.threads)
    if args.out is not None:
        eff["output"]["directory"] = args.out
    return eff


def config_hash(eff):
    # the output block only says where files land, not what they contain
    core = {k: eff[k] for k in ("schema", "model", "eos", "analysis")}
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _resolve_threads(eff):
    t = eff["analysis"]["threads"]
    if t is None:
        t = os.environ.get("LAWE_SPECTRA_THREADS")
    if t is None:
        return 1
    t = int(t)
    if t < 1:
        raise ValidationError(f"threads must be a positive integer, got {t}")
    return t


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path, header, columns, h):
    cols = [np.asarray(c) for c in columns]
    if len({c.shape[0] for c in cols}) > 1:
        raise ValidationError("CSV columns must share a length")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config sha256: {h}\n")
        fh.write(",".join(header) + "\n")
        for row in zip(*cols):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f if math.isfinite(f) else repr(f)
    return v


def _write_json(path, obj, h):
    payload = {"config_sha256": h}
    payload.update(_jsonable(obj))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _build_pd(eff, *, n_trunc, i_start):
    m = eff["model"]
    N = m["N"]
    if N is None:
        N = int(n_trunc) + int(i_start) + 4
    dist = model.build_mass_distribution(m["eta"], m["gamma"], M_star=m["M_star"],
                                         R_star=m["R_star"], G=m["G"], N=N)
    eos = eff["eos"]
    variant = eos["variant"]
    if variant in ("limit", "hse"):
        if eos.get("profile", "geometric") == "constant":
            prof = model.gamma_profile(dist, "constant",
                                       value=eos.get("Gamma", 2.0), zeta=m["zeta"])
        else:
            prof = model.gamma_profile(dist, "geometric", c=eos.get("c"),
                                       zeta=m["zeta"])
        return model.build_pd_distribution(dist, prof, zeta=m["zeta"],
                                           pressure_mode=variant)
    if variant == "polytrope":
        prof = model.gamma_profile(dist, "constant", value=eos.get("Gamma", 2.0),
                                   zeta=m["zeta"])
        return model.build_pd_distribution(dist, prof, zeta=m["zeta"],
                                           pressure_mode="polytrope",
                                           C_star=eos.get("C_star"))
    raise ValidationError(
        f"this subcommand needs a shell-model eos variant "
        f"(limit, hse or polytrope), got {variant!r}")


def _sl_eos(eff):
    eos = eff["eos"]
    m = eff["model"]
    variant = eos["variant"]
    kw = {"R_star": m["R_star"]}
    if eos.get("R_delta") is not None:
        kw["R_delta"] = eos["R_delta"]
    if variant == "polytropic":
        return slform.Polytropic(eos["a"], eos["b"], K=eos.get("K", 1.0), **kw)
    if variant == "linear_thermal":
        return slform.LinearThermal(eos["a"], eos["b"], eos["c"],
                                    K0=eos.get("K0", 1.0), L0=eos.get("L0", 1.0),
                                    **kw)
    raise ValidationError(
        f"sl analysis needs eos variant polytropic or linear_thermal, "
        f"got {variant!r}")


def _refuse_graded(op):
    # eigenvalues are certified to an absolute tolerance relative to the
    # whole span; rows whose Gershgorin scale is below it carry
    # eigenvalues the certificate cannot resolve at all
    scale = np.abs(op.diag)
    scale[:-1] += np.abs(op.offdiag)
    scale[1:] += np.abs(op.offdiag)
    glo, ghi = spectra.gershgorin_interval(op.diag, op.offdiag)
    tol = spectra.DEFAULT_RTOL * (ghi - glo)
    if np.min(scale) < tol:
        raise ValidationError(
            f"the section is graded: row scales run from {np.min(scale):.3e} to "
            f"{np.max(scale):.3e}, so eigenvalues of the small rows lie below the "
            f"certificate tolerance {tol:.3e}; run the scaled subcommand, which "
            f"analyses the rescaled operator")


def _run_spectrum(eff, outdir, h, threads):
    ana = eff["analysis"]
    n_trunc = ana["n_trunc"] or 4000
    i_start = ana["i_start"] if ana["i_start"] is not None else 16
    pd = _build_pd(eff, n_trunc=n_trunc, i_start=i_start)
    op = discrete.assemble_jacobi(pd, n_trunc, i_start=i_start)
    _refuse_graded(op)
    rep = spectra.spectrum_fill_report(op, pad=ana["pad"], threads=threads)
    _write_csv(os.path.join(outdir, "eigenvalues.csv"), ["lambda"],
               [rep.values], h)
    _write_json(os.path.join(outdir, "fill_report.json"), {
        "interval": list(rep.interval), "pad": rep.pad,
        "n_values": int(rep.values.size), "n_inside": rep.n_inside,
        "n_outliers": rep.n_outliers, "max_gap": rep.max_gap,
        "fills": rep.fills}, h)
    print(f"spectrum: n={rep.values.size} inside={rep.n_inside} "
          f"outliers={rep.n_outliers} max_gap={rep.max_gap:.3e} fills={rep.fills}")
    return 0


def _run_jost(eff, outdir, h, threads):
    ana = eff["analysis"]
    n_trunc = ana["n_trunc"] or 4000
    i_start = ana["i_start"] if ana["i_start"] is not None else 16
    lambdas = ana["lambdas"] if ana["lambdas"] is not None else [-1.6, 0.0, 1.6]
    pd = _build_pd(eff, n_trunc=n_trunc, i_start=i_start)
    op = discrete.assemble_jacobi(pd, n_trunc, i_start=i_start)
    fits = [spectra.jost_verify(op, float(lam)) for lam in lambdas]
    _write_csv(os.path.join(outdir, "jost.csv"),
               ["lambda", "theta", "theta_fit", "theta_error",
                "amplitude_flatness", "phase_residual", "n_peaks"],
               [[f.lam for f in fits], [f.theta for f in fits],
                [f.theta_fit for f in fits], [f.theta_error for f in fits],
                [f.amplitude_flatness for f in fits],
                [f.phase_residual for f in fits], [f.n_peaks for f in fits]], h)
    _write_json(os.path.join(outdir, "jost.json"), {"fits": [
        {"lambda": f.lam, "theta": f.theta, "theta_fit": f.theta_fit,
         "theta_error": f.theta_error, "amplitude_flatness": f.amplitude_flatness,
         "phase_residual": f.phase_residual, "n_peaks": f.n_peaks}
        for f in fits]}, h)
    for f in fits:
        print(f"jost: lambda={f.lam:+.4g} theta_err={f.theta_error:.3e} "
              f"flatness={f.amplitude_flatness:.3e}")
    return 0


def _run_ppmodes(eff, outdir, h, threads):
    ana = eff["analysis"]
    m = eff["model"]
    n_trunc = ana["n_trunc"] or 20000
    dsp = ppmodes.construct_dsp(ana["alpha"], ana["p"], ana["spacing"], n=n_trunc)
    pd = ppmodes.theorem_model(dsp, eta=m["eta"], gamma=m["gamma"], b=ana["b"],
                               zeta=m["zeta"], binding=ana["binding"])
    op = discrete.assemble_jacobi(pd, dsp.extent, i_start=1)
    kw = {}
    if ana["edge"] is not None:
        kw["edge"] = ana["edge"]
    if ana["window"] is not None:
        kw["window"] = tuple(ana["window"])
    if ana["tol"] is not None:
        kw["tol"] = ana["tol"]
    modes = ppmodes.detect_edge_eigenvalues(op, dsp, threads=threads, **kw)
    slope, r2 = modes.ladder_fit()
    _write_csv(os.path.join(outdir, "ppmodes.csv"),
               ["value", "depth", "block", "in_block", "dr_bounded"],
               [modes.values, modes.depths, modes.blocks, modes.in_block,
                modes.dr_bounded], h)
    _write_json(os.path.join(outdir, "ppmodes.json"), {
        "edge": modes.edge, "count": modes.count, "ladder_slope": slope,
        "ladder_r_squared": r2,
        "n_localized": int(np.count_nonzero(modes.in_block >= 0.9)),
        "n_dr_bounded": int(np.count_nonzero(modes.dr_bounded))}, h)
    print(f"ppmodes: count={modes.count} ladder_slope={slope:.4f} r2={r2:.4f}")
    return 0


def _run_transform_check(eff, outdir, h, threads):
    ana = eff["analysis"]
    n_instances = ana["n_instances"] or 50
    rational = bool(ana["rational"])
    rng = random.Random(ana["seed"])
    nonzero = [k for k in range(-9, 10) if k != 0]

    def _rat():
        return Fraction(rng.choice(nonzero), rng.randint(1, 9))

    worst = Fraction(0) if rational else 0.0
    for _ in range(n_instances):
        n = rng.randint(2, 64)
        if rational:
            diag = [_rat() for _ in range(n)]
            sub = [_rat() for _ in range(n - 1)]
            sup = [_rat() for _ in range(n - 1)]
            x, y = _rat(), _rat()
        else:
            diag = [rng.uniform(-2, 2) for _ in range(n)]
            sub = [rng.uniform(-2, 2) for _ in range(n - 1)]
            sup = [rng.uniform(-2, 2) for _ in range(n - 1)]
            x, y = rng.uniform(0.3, 1.8), rng.uniform(0.3, 1.8)
        chk = polytrans.similarity_check(diag, sub, sup, x, y)
        if chk.max_residual > worst:
            worst = chk.max_residual
    if rational and worst != 0:
        raise NumericalError(
            f"grading identity violated in rational arithmetic: "
            f"residual {worst} over {n_instances} instances")
    _write_json(os.path.join(outdir, "transform_check.json"), {
        "rational": rational, "n_instances": n_instances,
        "max_residual": str(worst), "exact": rational and worst == 0}, h)
    if rational:
        print(f"residual: exact zero, n={n_instances}")
    else:
        print(f"residual: {float(worst):.3e} (float), n={n_instances}")
    return 0


def _first_admissible(system, lam):
    idx = np.arange(1, system.n + 1)
    lam_i = -lam + system.beta * system.nu ** (2.0 * (idx // 2) - idx)
    bad = np.where(lam_i <= 0.0)[0]
    return 1 if bad.size == 0 else int(idx[bad.max()]) + 1


def _run_scaled(eff, outdir, h, threads):
    ana = eff["analysis"]
    n_trunc = ana["n_trunc"] or 2000
    pd = _build_pd(eff, n_trunc=n_trunc, i_start=1)
    if pd.gamma.kind == "geometric":
        raise ValidationError(
            "scaled analysis needs a constant adiabatic exponent "
            "(eos variant polytrope); geometric profiles scale to the "
            "trivial zero-coupling limit")
    system = polytrans.build_scaled_system(pd, n_trunc)
    lambdas = ana["lambdas"] if ana["lambdas"] is not None else [0.0]

    vals = spectra.truncation_eigenvalues(system.operator(), threads=threads).values
    bs = system.limit_band_structure()
    brep = spectra.band_report(np.sort(-vals), bs, pad=ana["pad"],
                               gap_margin=ana["pad"])
    per_lam = []
    for lam in lambdas:
        lam = float(lam)
        i_min = ana["i_min"] if ana["i_min"] is not None else _first_admissible(system, lam)
        lf = polytrans.local_frequencies(system, lam, i_min=i_min)
        gr = polytrans.delta_r_growth(system, lam)
        per_lam.append({"lambda": lam, "i_min": i_min,
                        "omega_slope": lf.slope(),
                        "solution_rate": gr.solution_rate,
                        "displacement_rate": gr.displacement_rate,
                        "theory_displacement_rate": gr.theory_displacement_rate})
    _write_csv(os.path.join(outdir, "scaled.csv"),
               ["I", "mu", "beta", "t", "diag"],
               [np.arange(1, system.n + 1), system.mu, system.beta, system.t,
                system.diag], h)
    _write_json(os.path.join(outdir, "scaled.json"), {
        "nu": system.nu, "mu_inf": system.mu_inf, "beta_inf": system.beta_inf,
        "bands": [list(b) for b in bs.bands], "gap": list(bs.gap),
        "negated_band_report": {"n_values": brep.n_values,
                                "n_off_band": brep.n_off_band,
                                "n_gap_interior": brep.n_gap_interior},
        "frequencies": per_lam}, h)
    for row in per_lam:
        print(f"scaled: lambda={row['lambda']:+.4g} omega_slope={row['omega_slope']:.6f} "
              f"delta_r_rate={row['displacement_rate']:.6f} "
              f"(theory {row['theory_displacement_rate']:.6f})")
    return 0


def _run_sl(eff, outdir, h, threads):
    ana = eff["analysis"]
    eos = _sl_eos(eff)
    case = slform.classify_sl_case(eos)
    _write_json(os.path.join(outdir, "sl_case.json"), {
        "route": case.route, "applies": case.applies, "notes": case.notes,
        "checks": [{"name": c.name, "exponent": c.exponent, "fitted": c.fitted,
                    "integrable": c.integrable, "tail_ratio": c.tail_ratio,
                    "consistent": c.consistent} for c in case.checks]}, h)
    print(f"sl: route={case.route} applies={case.applies}")

    lambdas = ana["lambdas"] if ana["lambdas"] is not None else []
    results = []
    form = slform.CanonicalForm(eos)
    for k, lam in enumerate(lambdas):
        lam = float(lam)
        trace = slform.integrate_canonical(form, lam, X_max=ana["x_max"],
                                           rtol=ana["rtol"])
        env = slform.extend_trace_asymptotic(trace, form)
        reg = slform.regularity_check(trace, eos, envelope=env)
        gr = slform.l2_growth(trace, form, envelope=env)
        wkb = slform.wkb_fit(trace, form)
        zero = np.zeros(trace.X_grid.size)
        _write_csv(os.path.join(outdir, f"trace_{k}.csv"),
                   ["X", "ReY", "ImY", "ReY_prime", "ImY_prime", "x", "xi",
                    "delta_r"],
                   [trace.X_grid, trace.Y, zero, trace.Y_prime, zero,
                    trace.x_grid, trace.y, trace.delta_r], h)
        results.append({
            "lambda": lam,
            "regularity": {"fitted_power": reg.fitted_power,
                           "analytic_power": reg.analytic_power,
                           "lower_bound": reg.lower_bound,
                           "monotone": reg.monotone, "within": reg.within,
                           "bound_satisfied": reg.bound_satisfied},
            "l2_growth": {"slope": gr.slope, "r_squared": gr.r_squared,
                          "max_growth_factor": gr.max_growth_factor,
                          "growth_exponent": gr.growth_exponent,
                          "delta_r_lower": gr.delta_r_lower,
                          "diverges": gr.diverges},
            "wkb": {"alpha_abs": abs(wkb.alpha), "beta_abs": abs(wkb.beta),
                    "residual": wkb.residual, "window": list(wkb.window)}})
        print(f"sl: lambda={lam:g} R_power={reg.fitted_power:.4f} "
              f"(analytic {reg.analytic_power:.4f}) F_slope={gr.slope:.4g} "
              f"diverges={gr.diverges}")
    if results:
        _write_json(os.path.join(outdir, "sl.json"), {"traces": results}, h)
    return 0


def _run_report(eff, outdir, h, threads):
    names = sorted(f for f in os.listdir(outdir)
                   if f.endswith(".json") and f != "report.json")
    sections = {}
    for name in names:
        with open(os.path.join(outdir, name), "r", encoding="utf-8") as fh:
            sections[name] = json.load(fh)
    _write_json(os.path.join(outdir, "report.json"),
                {"artifacts": sections}, h)
    lines = ["# run report", "", f"config sha256: `{h}`", ""]
    for name in names:
        lines.append(f"## {name}")
        lines.append("")
        lines.append("```json")
        lines.append(json.dumps(sections[name], sort_keys=True, indent=2))
        lines.append("```")
        lines.append("")
    with open(os.path.join(outdir, "report.md"), "w", encoding="utf-8",
              newline="") as fh:
        fh.write("\n".join(lines))
    print(f"report: aggregated {len(names)} artifact(s)")
    return 0


_HANDLERS = {
    "spectrum": _run_spectrum,
    "jost": _run_jost,
    "ppmodes": _run_ppmodes,
    "transform-check": _run_transform_check,
    "scaled": _run_scaled,
    "sl": _run_sl,
    "report": _run_report,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def run(subcommand, config_path=None, *, argv_extra=()):
    """Programmatic entry point: run one subcommand against a config file."""
    argv = [subcommand]
    if config_path is not None:
        argv += ["--config", str(config_path)]
    argv += list(argv_extra)
    return main(argv)


def main(argv=None):
    parser = _Parser(prog="lawe-spectra",
                     description="spectral analyses of shell-model wave operators")
    parser.add_argument("subcommand", nargs="?", choices=sorted(_HANDLERS),
                        help="analysis to run (may also come from the config)")
    parser.add_argument("--config", help="path to a JSON config (schema 1)")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="PRNG seed (overrides config)")
    parser.add_argument("--rational", action="store_true",
                        help="exact rational arithmetic (transform-check only)")
    parser.add_argument("--threads", type=int,
                        help="threads for the Sturm certificate sweep "
                             "(falls back to LAWE_SPECTRA_THREADS)")
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config) if args.config else {"schema": 1}
        eff = effective_config(cfg, args)
        sub = eff["analysis"]["subcommand"]
        if sub is None:
            raise ValidationError(
                "no subcommand: pass one on the command line or set "
                "analysis.subcommand in the config")
        if sub not in _HANDLERS:
            raise ValidationError(
                f"subcommand must be one of {sorted(_HANDLERS)}, got {sub!r}")
        if args.rational and sub != "transform-check":
            raise ValidationError("--rational applies to transform-check only")
        threads = _resolve_threads(eff)
        h = config_hash(eff)
        outdir = eff["output"]["directory"]
        os.makedirs(outdir, exist_ok=True)
        return _HANDLERS[sub](eff, outdir, h, threads)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
