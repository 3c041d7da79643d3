"""Configuration-driven runner emitting reproducible CSV and JSON artifacts.

Config files are strict JSON with a versioned ``schema`` field, checked
key by key against ``_SCHEMA``; unknown keys are rejected everywhere, so a
typo cannot silently fall back to a default.  The config states the whole
job; the command line adds only the subcommand, which the effective config
records as ``analysis.subcommand``, and ``--out``, which replaces
``output.directory``.  Artifacts are byte-identical across runs with the
same effective configuration: floats are written in shortest round-trip
form, JSON keys are sorted, and every CSV opens with a comment line
carrying the sha256 hash of the effective config.

Each subcommand's handler computes and returns its artifacts as data,
``{file name: content}``; ``main`` is the only writer.  It renders every
artifact, which checks each number bound for it, before it opens the
first file, and then writes them all or none, so a job that exits 1 or 2
writes no artifact.

Exit codes: 0 success, 1 validation failure (message names the violated
precondition), 2 numerical failure (message includes the location).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import json
import math
import os
import random
import sys

import numpy as np

from .errors import ValidationError, NumericalError
from . import model, discrete, spectra, ppmodes, polytrans, slform


def _is_number(v):
    # json.load yields exactly int or float for a number; it accepts NaN,
    # and an integer literal may lie beyond the float range
    return type(v) in (int, float) and -sys.float_info.max <= v <= sys.float_info.max


# value kinds: (test, what a message says the value must be)
_NUM = (_is_number, "a finite number")
_POS = (lambda v: _is_number(v) and v > 0, "a positive finite number")
_INT = (lambda v: type(v) is int, "an integer")
_POS_INT = (lambda v: type(v) is int and v > 0, "a positive integer")
# sizes and counts carry an upper bound as a third entry: far beyond it a
# job would exhaust memory or run for hours instead of failing
_SIZE = (*_INT, 10**6)
_COUNT = (*_POS_INT, 10**4)
_NUMS = (lambda v: isinstance(v, list) and all(map(_is_number, v)),
         "a list of finite numbers")
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_STR = (lambda v: isinstance(v, str), "a string")

#: Every config key: block -> key -> (kind, default).  A key may be null
#: exactly where its default is null; a default of ``...`` marks a key
#: the config must give.  A range appears only where the library does
#: not check one itself.  The eos keys depend on the variant; their
#: defaults are read by the handlers and are not written into the
#: effective config, and eos keys left out of an ``sl`` config take the
#: defaults of ``slform.Polytropic``/``LinearThermal``.
_SCHEMA = {
    "model": {"eta": (_NUM, 0.5), "gamma": (_NUM, 2.0), "M_star": (_NUM, 1.0),
              "R_star": (_NUM, 1.0), "G": (_NUM, 1.0), "zeta": (_NUM, 0.0)},
    "eos": {
        "limit": {},
        "hse": {},
        "polytrope": {"Gamma": (_NUM, 2.0), "C_star": (_NUM, None)},
        "polytropic": {"a": (_NUM, ...), "b": (_NUM, ...), "K": (_NUM, None),
                       "R_delta": (_NUM, None)},
        "linear_thermal": {"a": (_NUM, ...), "b": (_NUM, ...), "c": (_NUM, ...),
                           "K0": (_NUM, None), "L0": (_NUM, None),
                           "R_delta": (_NUM, None)},
    },
    "analysis": {
        # a null n_trunc, i_start, i_min, n_instances or lambdas takes the
        # subcommand's own default; see the handlers
        "lambdas": (_NUMS, None), "n_trunc": (_SIZE, None), "i_start": (_SIZE, None),
        "i_min": (_INT, None), "pad": (_NUM, 0.05), "seed": (_INT, 0),
        "threads": (_POS_INT, None), "rational": (_BOOL, False),
        "n_instances": (_COUNT, None), "x_max": (_POS, 2000.0), "rtol": (_POS, 1e-10),
        "alpha": (_NUM, 0.8), "p": (_NUM, 0.5), "spacing": (_NUM, 5.0), "b": (_NUM, None),
    },
    "output": {"directory": (_STR, "out")},
}


def _defaults(specs):
    return {key: default for key, (_, default) in specs.items()}


def _check_block(block, specs, where, label):
    if not isinstance(block, dict):
        raise ValidationError(f"{where} block must be a JSON object")
    extra = sorted(set(block) - set(specs))
    if extra:
        raise ValidationError(f"unknown key(s) {extra} in {label} block")
    for key, ((test, noun, *hi), default) in specs.items():
        v = block.get(key)
        if key not in block:
            if default is ...:
                raise ValidationError(f"{where}.{key} is required in {label}")
        elif not (test(v) or (v is None and default is None)):
            raise ValidationError(f"{where}.{key} must be {noun}, got {v!r}")
        elif hi and v is not None and v > hi[0]:
            raise ValidationError(f"{where}.{key} must be at most {hi[0]}, got {v!r}")


def load_config(path):
    """Parse a JSON config file and validate it against ``_SCHEMA``."""
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
    extra = sorted(set(cfg) - {"schema", *_SCHEMA})
    if extra:
        raise ValidationError(f"unknown key(s) {extra} in top-level block")
    for name in ("model", "analysis", "output"):
        _check_block(cfg.get(name, {}), _SCHEMA[name], name, name)
    eos = cfg.get("eos", {})
    variant = eos.get("variant", "limit") if isinstance(eos, dict) else "limit"
    if not (isinstance(variant, str) and variant in _SCHEMA["eos"]):
        raise ValidationError(
            f"eos variant must be one of {sorted(_SCHEMA['eos'])}, got {variant!r}")
    _check_block(eos, {"variant": (_STR, "limit"), **_SCHEMA["eos"][variant]},
                 "eos", f"eos ({variant})")
    return cfg


def effective_config(cfg, args):
    """Overlay defaults and ``--out`` onto a parsed config, and record the
    subcommand as ``analysis.subcommand`` so that the config hash names it."""
    eff = {"schema": 1, "eos": {"variant": "limit", **cfg.get("eos", {})}}
    for name in ("model", "analysis", "output"):
        eff[name] = {**_defaults(_SCHEMA[name]), **cfg.get(name, {})}
    eff["analysis"]["subcommand"] = args.subcommand
    if args.out is not None:
        eff["output"]["directory"] = args.out
    return eff


def config_hash(eff):
    # the output block only says where files land, not what they contain
    core = {k: eff[k] for k in ("schema", "model", "eos", "analysis")}
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_BOOL_CELL = {True: "true", False: "false"}

#: a float column formats each distinct value once when at least this
#: share of its cells repeat the cell two rows above, as the saturated
#: 2-periodic tail of ``scaled.csv`` does; sorting out the distinct
#: values costs more than it saves on a column of distinct values
_REPEAT_SHARE = 0.25


def _cells(col):
    # one conversion per column: floats in shortest round-trip form,
    # integers in decimal, booleans as true/false
    if col.dtype.kind == "b":
        return map(_BOOL_CELL.__getitem__, col.tolist())
    if col.dtype.kind in "iu":
        return map(str, col.tolist())
    col = col.astype(float, copy=False)
    # distinct bit patterns, so that -0.0 keeps its sign
    bits = col.view(np.int64)
    if np.count_nonzero(bits[2:] == bits[:-2]) < _REPEAT_SHARE * col.size:
        return map(repr, col.tolist())
    distinct, index = np.unique(bits, return_inverse=True)
    text = list(map(repr, distinct.view(float).tolist()))
    return map(text.__getitem__, index.tolist())


def _render_csv(name, table, h):
    """Text of the CSV artifact ``name`` from its ``{header: column}`` table."""
    cols = [np.asarray(c) for c in table.values()]
    if len({c.shape[0] for c in cols}) > 1:
        lengths = ", ".join(f"{header} {c.shape[0]}" for header, c in zip(table, cols))
        raise ValidationError(
            f"CSV columns of artifact {name} must share a length, got {lengths}")
    for header, col in zip(table, cols):
        bad = np.flatnonzero(~np.isfinite(col)) if col.dtype.kind == "f" else ()
        if len(bad):
            raise NumericalError(
                f"non-finite value {float(col[bad[0]])!r} in artifact "
                f"{name}, column {header}, row {int(bad[0])}")
    lines = [f"# config sha256: {h}", ",".join(table)]
    lines += map(",".join, zip(*map(_cells, cols)))
    return "\n".join(lines) + "\n"


#: fields whose documented value may be infinite; written as "inf"/"-inf"
_INF_SENTINELS = {"tail_ratio", "max_growth_factor"}


def _jsonable(v, artifact, field):
    if isinstance(v, dict):
        return {str(k): _jsonable(x, artifact, f"{field}.{k}" if field else str(k))
                for k, x in v.items()}
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x, artifact, f"{field}[{i}]") for i, x in enumerate(v)]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isfinite(f):
            return f
        if math.isnan(f) or field.rsplit(".", 1)[-1] not in _INF_SENTINELS:
            raise NumericalError(
                f"non-finite value {f!r} in artifact {artifact}, field {field}")
        return repr(f)
    return v


def _render_json(name, obj, h):
    """Text of the JSON artifact ``name``, stamped with the config hash."""
    payload = {"config_sha256": h, **_jsonable(obj, name, "")}
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


#: artifact renderers by file suffix: (name, content, config hash) -> text.
#: A CSV's content is a ``{header: column}`` mapping, a JSON artifact's a
#: mapping, and ``report.md``'s its text.
_RENDER = {".csv": _render_csv, ".json": _render_json, ".md": lambda name, text, h: text}


def _build_pd(eff, *, n_trunc, i_start):
    m = eff["model"]
    model.check_power_law(m["eta"], m["gamma"], prefix="model.")
    variant = eff["eos"]["variant"]
    eos = {**_defaults(_SCHEMA["eos"][variant]), **eff["eos"]}
    dist = model.build_mass_distribution(m["eta"], m["gamma"], M_star=m["M_star"],
                                         R_star=m["R_star"], G=m["G"],
                                         N=n_trunc + i_start + 4)
    # the variant fixes the profile: constant for a polytrope, else geometric
    prof = (model.gamma_profile(dist, "constant", value=eos["Gamma"])
            if variant == "polytrope" else None)
    return model.build_pd_distribution(dist, prof, zeta=m["zeta"],
                                       pressure_mode=variant, C_star=eos.get("C_star"))


_SL_EOS = {"polytropic": slform.Polytropic, "linear_thermal": slform.LinearThermal}


def _fields(obj, names):
    return {name: getattr(obj, name) for name in names.split()}


def _or(value, default):
    return default if value is None else value


def _refuse_graded(op):
    # eigenvalues are certified to an absolute tolerance, a fraction of the
    # whole span; unless it lies far below the smallest Gershgorin row
    # scale, the certificate resolves the small rows' eigenvalues poorly
    scale = np.abs(op.diag)
    scale[:-1] += np.abs(op.offdiag)
    scale[1:] += np.abs(op.offdiag)
    glo, ghi = spectra.gershgorin_interval(op.diag, op.offdiag)
    tol = spectra.default_tol(glo, ghi)
    if tol > 1e-6 * np.min(scale):
        raise ValidationError(
            f"the section is graded: row scales run from {np.min(scale):.3e} to "
            f"{np.max(scale):.3e}, so the certificate tolerance {tol:.3e} "
            f"exceeds 1e-6 of the smallest")


def _shell_model(eff):
    """(model, n_trunc, i_start) of a spectrum or jost section."""
    n_trunc = _or(eff["analysis"]["n_trunc"], 4000)
    i_start = _or(eff["analysis"]["i_start"], 16)
    return _build_pd(eff, n_trunc=n_trunc, i_start=i_start), n_trunc, i_start


def _run_spectrum(eff, threads):
    pd, n_trunc, i_start = _shell_model(eff)
    # the model's essential interval; a polytrope whose couplings grow
    # (e3 < 0) has none and is refused here, before any entry is formed
    pd.scaling
    op = discrete.assemble_jacobi(pd, n_trunc, i_start=i_start)
    _refuse_graded(op)
    rep = spectra.spectrum_fill_report(op, pad=eff["analysis"]["pad"], threads=threads)
    print(f"spectrum: n={rep.values.size} inside={rep.n_inside} "
          f"outliers={rep.n_outliers} max_gap={rep.max_gap:.3e} fills={rep.fills}")
    return {"eigenvalues.csv": {"lambda": rep.values},
            "fill_report.json": {
                "interval": list(rep.interval), "n_values": int(rep.values.size),
                **_fields(rep, "pad n_inside n_outliers max_gap fills route tail_start "
                               "newton_steps edge_test")}}


#: jost artifact columns and the JostFit attributes they hold
_JOST_FIELDS = (("lambda", "lam"), ("theta", "theta"), ("theta_fit", "theta_fit"),
                ("theta_error", "theta_error"), ("amplitude_flatness", "amplitude_flatness"),
                ("phase_residual", "phase_residual"), ("n_peaks", "n_peaks"),
                ("peak_fallback", "peak_fallback"))


def _run_jost(eff, threads):
    pd, n_trunc, i_start = _shell_model(eff)
    op = discrete.assemble_jacobi(pd, n_trunc, i_start=i_start)
    # by default the centre and the midpoints of the model's own interval
    sp = op.scaling
    default = [sp.centre + f * sp.half_width for f in (-0.5, 0.0, 0.5)]
    fits = [spectra.jost_verify(op, lam) for lam in _or(eff["analysis"]["lambdas"], default)]
    for f in fits:
        print(f"jost: lambda={f.lam:+.4g} theta_err={f.theta_error:.3e} "
              f"flatness={f.amplitude_flatness:.3e}")
    table = {col: [getattr(f, attr) for f in fits] for col, attr in _JOST_FIELDS}
    return {"jost.csv": table,
            "jost.json": {"fits": [dict(zip(table, row)) for row in zip(*table.values())]}}


def _run_ppmodes(eff, threads):
    ana = eff["analysis"]
    m = eff["model"]
    model.check_power_law(m["eta"], m["gamma"], prefix="model.")
    n_trunc = _or(ana["n_trunc"], 20000)
    dsp = ppmodes.construct_dsp(ana["alpha"], ana["p"], ana["spacing"], n=n_trunc)
    pd = ppmodes.theorem_model(dsp, eta=m["eta"], gamma=m["gamma"], b=ana["b"],
                               zeta=m["zeta"])
    op = discrete.assemble_jacobi(pd, dsp.extent, i_start=1)
    modes = ppmodes.detect_edge_eigenvalues(op, dsp, threads=threads)
    # fewer than three bound modes leave no ladder to fit: slope and r2 are null
    slope, r2 = modes.ladder_fit()
    fit = "none" if slope is None else f"{slope:.4f} r2={r2:.4f}"
    print(f"ppmodes: count={modes.count} ladder_slope={fit}")
    return {"ppmodes.csv": {"value": modes.values, "depth": modes.depths,
                            "block": modes.blocks, "in_block": modes.in_block,
                            "dr_bounded": modes.dr_bounded},
            "ppmodes.json": {
                "edge": modes.edge, "count": modes.count, "ladder_slope": slope,
                "ladder_r_squared": r2,
                "n_localized": int(np.count_nonzero(modes.in_block >= 0.9)),
                "n_dr_bounded": int(np.count_nonzero(modes.dr_bounded))}}


#: largest size of a transform-check instance
_TRANSFORM_MAX_N = 64


def _run_transform_check(eff, threads):
    ana = eff["analysis"]
    n_instances = _or(ana["n_instances"], 50)
    if ana["rational"]:
        # the exponent certificate depends on the size alone, and one pass
        # at the largest size certifies every smaller one: no instance is
        # drawn
        if not polytrans.grading_exact(_TRANSFORM_MAX_N):
            raise NumericalError(f"grading identity violated in exact exponent "
                                 f"arithmetic at a size of at most {_TRANSFORM_MAX_N}")
        print(f"residual: exact zero, n={n_instances}")
        return {"transform_check.json": {"rational": True, "n_instances": n_instances,
                                         "max_residual": "0", "exact": True}}
    rng = random.Random(ana["seed"])
    worst = 0.0
    for _ in range(n_instances):
        n = rng.randint(2, _TRANSFORM_MAX_N)
        diag, sub, sup = ([rng.uniform(-2, 2) for _ in range(k)] for k in (n, n - 1, n - 1))
        x, y = rng.uniform(0.3, 1.8), rng.uniform(0.3, 1.8)
        worst = max(worst, polytrans.similarity_check(diag, sub, sup, x, y).max_residual)
    print(f"residual: {worst:.3e} (float), n={n_instances}")
    return {"transform_check.json": {"rational": False, "n_instances": n_instances,
                                     "max_residual": str(worst), "exact": False}}


def _run_scaled(eff, threads):
    ana = eff["analysis"]
    n_trunc = _or(ana["n_trunc"], 2000)
    if n_trunc < 9:  # the fits of delta_r_growth need 9 shells
        raise ValidationError(
            f"analysis.n_trunc must be at least 9 for scaled, got {n_trunc}")
    pd = _build_pd(eff, n_trunc=n_trunc, i_start=1)
    if not pd.e3 < 0.0:  # refused here to name the config key
        raise ValidationError(
            f"scaled analysis needs (model.gamma - 1)*(eos.Gamma - 1) < 2 for a scaling "
            f"base nu = eta**-e3 below 1; eos.Gamma {pd.gamma.c!r} gives e3 = {pd.e3:.6g}")
    system = polytrans.build_scaled_system(pd, n_trunc)
    bs = system.limit_band_structure()
    brep = spectra.band_report(system.operator(), bs, pad=ana["pad"])
    per_lam = []
    for lam in _or(ana["lambdas"], [0.0]):
        lf = polytrans.local_frequencies(system, lam, i_min=ana["i_min"])
        gr = polytrans.delta_r_growth(system, lam)
        # the artifact writes every lambda as a float, integers included
        per_lam.append({"lambda": float(lam), "i_min": int(lf.shells[0]),
                        "omega_slope": lf.slope(),
                        **_fields(gr, "solution_rate displacement_rate "
                                      "theory_displacement_rate")})
    for row in per_lam:
        print(f"scaled: lambda={row['lambda']:+.4g} omega_slope={row['omega_slope']:.6f} "
              f"delta_r_rate={row['displacement_rate']:.6f} "
              f"(theory {row['theory_displacement_rate']:.6f})")
    return {"scaled.csv": {"I": np.arange(1, system.n + 1), "mu": system.mu,
                           "beta": system.beta, "t": system.t, "diag": system.diag},
            "scaled.json": {
                "nu": system.nu, "mu_inf": system.mu_inf, "beta_inf": system.beta_inf,
                "bands": [list(b) for b in bs.bands], "gap": list(bs.gap),
                "negated_band_report": _fields(brep, "n_values n_off_band n_gap_interior"),
                "frequencies": per_lam}}


def _run_sl(eff, threads):
    ana = eff["analysis"]
    params = {k: v for k, v in eff["eos"].items() if v is not None}
    eos = _SL_EOS[params.pop("variant")](R_star=eff["model"]["R_star"], **params)
    form = slform.CanonicalForm(eos)
    lambdas = _or(ana["lambdas"], [])
    if any(lam <= 0.0 for lam in lambdas):
        raise ValidationError(f"analysis.lambdas must be positive for sl, got {lambdas!r}")
    # each trace hands over to its surface envelope, which runs down to
    # ENVELOPE_DEPTH; the growth factor compares the envelope's deepest
    # decade with the one above, so the trace must end above both
    depth = 10.0 * slform.ENVELOPE_DEPTH
    x_top = form.X_at_depth(depth * eos.R_star)
    if lambdas and ana["x_max"] >= x_top:
        raise ValidationError(
            f"analysis.x_max must be below {x_top:.6g} for this layer, where its depth "
            f"falls to {depth:g} R_star; got {ana['x_max']!r}")
    big = [lam for lam in lambdas if not slform.grid_points(lam, ana["x_max"]) <= slform.MAX_GRID]
    if big:
        raise ValidationError(
            f"analysis.lambdas {big!r} with analysis.x_max {ana['x_max']!r} need output "
            f"grids of more than {slform.MAX_GRID} points (24 per wavelength 2*pi/sqrt(lambda))")
    case = slform.classify_sl_case(eos)
    artifacts = {"sl_case.json": {
        "route": case.route, "applies": case.applies, "notes": case.notes,
        "checks": [_fields(c, "name exponent fitted integrable tail_ratio consistent")
                   for c in case.checks]}}
    print(f"sl: route={case.route} applies={case.applies}")

    results = []
    for k, lam in enumerate(lambdas):
        try:
            trace = slform.integrate_canonical(form, lam, X_max=ana["x_max"],
                                               rtol=ana["rtol"])
        except NumericalError as exc:
            raise NumericalError(
                f"sl at lambda {lam!r} with analysis.rtol {ana['rtol']!r}: {exc}") from None
        env = slform.extend_trace_asymptotic(trace, form)
        reg = slform.regularity_check(trace, eos, env)
        gr = slform.l2_growth(trace, env)
        try:
            wkb = slform.wkb_fit(trace, form)
        except ValidationError as exc:
            raise ValidationError(
                f"sl at lambda {lam!r} with analysis.x_max {ana['x_max']!r}: {exc}") from None
        # only what the solver computed: x, xi and delta_r follow from X and Y
        artifacts[f"trace_{k}.csv"] = {"X": trace.X_grid, "Y": trace.Y,
                                       "Y_prime": trace.Y_prime}
        results.append({
            "lambda": trace.lam,
            "propagator": {"method": "magnus6", "substeps": trace.substeps,
                           "levels": list(trace.levels),
                           "error_estimate": trace.error_estimate,
                           "grid_points": trace.X_grid.size,
                           "steps": (trace.X_grid.size - 1) * sum(trace.levels)},
            "regularity": _fields(reg, "fitted_power analytic_power lower_bound "
                                       "monotone within bound_satisfied"),
            "l2_growth": _fields(gr, "slope r_squared max_growth_factor "
                                     "growth_exponent diverges"),
            "wkb": {"alpha_abs": abs(wkb.alpha), "beta_abs": abs(wkb.beta),
                    "residual": wkb.residual, "window": list(wkb.window),
                    "split": wkb.split}})
        print(f"sl: lambda={lam:g} R_power={reg.fitted_power:.4f} "
              f"(analytic {reg.analytic_power:.4f}) F_slope={gr.slope:.4g} "
              f"diverges={gr.diverges}")
    if results:
        artifacts["sl.json"] = {"traces": results}
    return artifacts


def _run_report(eff, threads):
    outdir = eff["output"]["directory"]
    names = sorted(f for f in os.listdir(outdir)
                   if f.endswith(".json") and f != "report.json")
    sections = {}
    for name in names:
        with open(os.path.join(outdir, name), "r", encoding="utf-8") as fh:
            try:
                sections[name] = json.load(fh)
            except ValueError as exc:   # not JSON, or not UTF-8
                raise ValidationError(f"{name} in {outdir} is not JSON: {exc}") from None
    lines = ["# run report", "", f"config sha256: `{config_hash(eff)}`", ""]
    for name in names:
        lines += [f"## {name}", "", "```json",
                  json.dumps(sections[name], sort_keys=True, indent=2), "```", ""]
    print(f"report: aggregated {len(names)} artifact(s)")
    return {"report.json": {"artifacts": sections}, "report.md": "\n".join(lines)}


#: the eos variants each subcommand runs on; the others read no eos key.
#: ppmodes' theorem model is the limit law, and geometric profiles scale
#: to zero couplings
_EOS_VARIANTS = {"spectrum": ("limit", "hse", "polytrope"), "jost": ("limit", "hse"),
                 "ppmodes": ("limit",), "scaled": ("polytrope",), "sl": tuple(_SL_EOS)}

_HANDLERS = {
    "spectrum": _run_spectrum,
    "jost": _run_jost,
    "ppmodes": _run_ppmodes,
    "transform-check": _run_transform_check,
    "scaled": _run_scaled,
    "sl": _run_sl,
    "report": _run_report,
}


def _write_all(outdir, texts):
    """Write every artifact of ``texts`` into ``outdir``, or none of them.

    Each text goes to a hidden partial file whose name ends in neither
    ``.json`` nor ``.csv``, so ``report`` never reads one.  The partials
    replace their targets only once all are written; on any failure they
    are removed and the job exits 1.
    """
    partials = {}
    try:
        for name, text in texts.items():
            path = os.path.join(outdir, name)
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            tmp = os.path.join(outdir, f".{name}.partial")
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                partials[name] = tmp
                fh.write(text)
        for name, tmp in partials.items():
            os.replace(tmp, os.path.join(outdir, name))
    except OSError as exc:
        for tmp in partials.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise ValidationError(
            f"output.directory {outdir!r}: cannot write {name}: {exc}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


# built once: each parse_args call returns a fresh namespace, error() raises
_PARSER = _Parser(prog="lawe-spectra",
                  description="spectral analyses of shell-model wave operators")
_PARSER.add_argument("subcommand", choices=sorted(_HANDLERS), help="analysis to run")
_PARSER.add_argument("--config", help="path to a JSON config (schema 1)")
_PARSER.add_argument("--out", help="output directory (overrides config)")


def run(subcommand, config_path=None, *, argv_extra=()):
    """Programmatic entry point: run one subcommand against a config file."""
    argv = [subcommand]
    if config_path is not None:
        argv += ["--config", str(config_path)]
    argv += list(argv_extra)
    return main(argv)


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
        cfg = load_config(args.config) if args.config else {"schema": 1}
        eff = effective_config(cfg, args)
        sub = args.subcommand
        outdir = eff["output"]["directory"]
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ValidationError(
                f"output.directory {outdir!r} cannot be created: {exc}") from None
        variant, allowed = eff["eos"]["variant"], _EOS_VARIANTS.get(sub)
        if allowed and variant not in allowed:
            raise ValidationError(
                f"{sub} needs eos.variant {' or '.join(allowed)}, got {variant!r}")
        artifacts = _HANDLERS[sub](eff, _or(eff["analysis"]["threads"], 1))
        h = config_hash(eff)
        # every artifact is rendered, and so checked, before the first opens
        texts = {name: _RENDER[os.path.splitext(name)[1]](name, content, h)
                 for name, content in artifacts.items()}
        _write_all(outdir, texts)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
