"""Seeded job streams for the benchmark workloads.

A stream repeats one fixed round of job slots.  The seed draws every
parameter of every job; the slot order and the size strata stay fixed,
so any prefix of a stream costs about the same whatever the seed and
the throughput of a run does not depend on which seed it got.

Every parameter that sets a job's cost is handed out stratum by
stratum: the j-th draw of a parameter takes stratum ``_ORDER[(j + k)
% 8]`` of its range, with a fixed phase k per parameter, and only the
position inside the stratum comes from the seed.  The bit-reversed
order spreads every eight consecutive draws over the whole range, and
the phases pair the strata of different parameters differently.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass, field

from lawe_spectra.model import coupling_constant

_ORDER = (0, 4, 2, 6, 1, 5, 3, 7)

#: equations of state for ``sl`` jobs: (eos block, route the classifier
#: must report).  The last one is the only WKB route.
SL_EOS = {
    "P(2,4)": ({"variant": "polytropic", "a": 2.0, "b": 4.0},
               "integrable_canonical_potential"),
    "P(2,3)": ({"variant": "polytropic", "a": 2.0, "b": 3.0},
               "integrable_canonical_potential"),
    "P(1,5)": ({"variant": "polytropic", "a": 1.0, "b": 5.0},
               "integrable_canonical_potential"),
    "P(3,2)": ({"variant": "polytropic", "a": 3.0, "b": 2.0},
               "integrable_canonical_potential"),
    "LT(1,4,2.5)": ({"variant": "linear_thermal", "a": 1.0, "b": 4.0, "c": 2.5},
                    "bounded_vanishing_potential"),
    "LT(2,3,4)": ({"variant": "linear_thermal", "a": 2.0, "b": 3.0, "c": 4.0},
                  "bounded_vanishing_potential"),
    "LT(1,4,1.5)": ({"variant": "linear_thermal", "a": 1.0, "b": 4.0, "c": 1.5},
                    "unbounded_potential_wkb"),
}
WKB_ROUTE = "unbounded_potential_wkb"


@dataclass
class Job:
    """One CLI invocation: the subcommand and its config without output."""

    kind: str
    config: dict
    expect: dict = field(default_factory=dict)


class _Draw:
    """Seeded parameter source, stratified per parameter name."""

    def __init__(self, rng):
        self.rng = rng
        self.seen = {}

    def __call__(self, key, lo, hi):
        j = self.seen.get(key, 0)
        self.seen[key] = j + 1
        stratum = _ORDER[(j + zlib.crc32(key.encode())) % len(_ORDER)]
        return round(lo + (hi - lo) * (stratum + self.rng.random()) / len(_ORDER), 6)


def _spectrum(d):
    return Job("spectrum", {
        "model": {"eta": d("spectrum.eta", 0.3, 0.7),
                  "gamma": d("spectrum.gamma", 1.5, 3.0)},
        "eos": {"variant": "limit"},
        "analysis": {"n_trunc": int(d("spectrum.n", 500, 1500)), "i_start": 16}})


def _scaled(d):
    # (gamma-1)*(Gamma-1) = 2 + e3 with e3 in [-0.9, -0.2]: nu = eta**-e3
    # stays in (0, 1) (e3 = 0, i.e. Gamma = 3 at gamma = 2, is refused)
    # and the stiff pressure factor eta**(e3*I) stays far from overflow
    gamma = d("scaled.gamma", 1.8, 2.4)
    Gamma = round(1.0 + d("scaled.e3+2", 1.1, 1.8) / (gamma - 1.0), 6)
    return Job("scaled", {
        "model": {"eta": d("scaled.eta", 0.45, 0.65), "gamma": gamma},
        "eos": {"variant": "polytrope", "Gamma": Gamma},
        "analysis": {"n_trunc": int(d("scaled.n", 300, 700))}})


def _transform_check(d):
    return Job("transform-check", {"analysis": {
        "rational": True, "n_instances": int(d("transform-check.n", 20, 40)),
        "seed": d.rng.randrange(2**31)}})


def _ppmodes(d):
    alpha = d("ppmodes.alpha", 0.7, 0.9)
    # construct_dsp needs 1/3 < p < alpha*(p+1)/2, i.e. p < alpha/(2-alpha)
    p = d("ppmodes.p", 0.4, min(0.55, 0.98 * alpha / (2.0 - alpha)))
    return Job("ppmodes", {
        "model": {"eta": d("ppmodes.eta", 0.3, 0.7),
                  "gamma": d("ppmodes.gamma", 1.5, 3.0)},
        "analysis": {"n_trunc": int(d("ppmodes.n", 2500, 6000)), "alpha": alpha,
                     "p": p, "spacing": d("ppmodes.spacing", 3.0, 8.0)}})


def _jost(d):
    eta, gamma = d("jost.eta", 0.3, 0.7), d("jost.gamma", 1.5, 3.0)
    # interior energies: fractions of the half-width 2*kappa*lambda_star
    # (lambda_star = 1 and the centre is 0 for the default unit model)
    half = 2.0 * coupling_constant(eta, gamma)
    lams = sorted(round(d("jost.lambda", -0.8, 0.8) * half, 6) for _ in range(3))
    return Job("jost", {
        "model": {"eta": eta, "gamma": gamma},
        "eos": {"variant": "limit"},
        "analysis": {"n_trunc": int(d("jost.n", 15000, 25000)), "i_start": 16,
                     "lambdas": lams}})


def _sl(name):
    eos, route = SL_EOS[name]
    # WKB jobs take about ten times the right-hand-side calls per unit of
    # X, so they get shorter sections.  They are the slowest jobs, and
    # job_tail_s falls inside their cluster at a rank that moves with the
    # job count, so their band is narrow.  Below X = 50 the bounded
    # routes have not yet shown the two decades of displacement growth
    # checked.
    lo, hi = (40.0, 50.0) if route == WKB_ROUTE else (50.0, 100.0)

    def make(d):
        return Job("sl", {
            "eos": dict(eos),
            "analysis": {"lambdas": [d(f"sl.{name}.lambda", 0.6, 2.0)],
                         "x_max": d(f"sl.{name}.x_max", lo, hi)}},
            expect={"route": route, "eos": name})
    return make


ROUNDS = {
    # full-spectrum bisection: thousands of shifts per Sturm sweep
    "dense-spectrum": (_spectrum, _scaled, _spectrum, _transform_check, _spectrum,
                       _scaled),
    # windowed bisection and long recurrences: few shifts over long sections
    "long-section": (_ppmodes, _jost, _jost, _ppmodes, _jost, _jost),
    # canonical-form ODE integration; never enters the Sturm solver.  Two of
    # eight slots take the WKB route, which costs several times the others.
    "surface-ode": (_sl("P(2,4)"), _sl("P(2,3)"), _sl("LT(1,4,1.5)"),
                    _sl("LT(1,4,2.5)"), _sl("P(1,5)"), _sl("P(3,2)"),
                    _sl("LT(1,4,1.5)"), _sl("LT(2,3,4)")),
}


def stream(workload, seed):
    """The workload's endless job stream for ``seed``."""
    d = _Draw(random.Random(f"{workload}:{seed}"))
    return (slot(d) for slot in itertools.cycle(ROUNDS[workload]))


def warmup(workload):
    """Small fixed jobs that exercise every code path of the workload once."""
    small = {
        "dense-spectrum": [
            Job("spectrum", {"analysis": {"n_trunc": 200, "i_start": 16}}),
            Job("scaled", {"eos": {"variant": "polytrope", "Gamma": 2.5},
                           "analysis": {"n_trunc": 100}}),
            Job("transform-check", {"analysis": {"rational": True, "n_instances": 3}})],
        "long-section": [
            Job("ppmodes", {"analysis": {"n_trunc": 800}}),
            Job("jost", {"analysis": {"n_trunc": 2000, "i_start": 16}})],
        "surface-ode": [
            Job("sl", {"eos": dict(SL_EOS["P(2,4)"][0]),
                       "analysis": {"lambdas": [1.0], "x_max": 20.0}}),
            Job("sl", {"eos": dict(SL_EOS["LT(1,4,1.5)"][0]),
                       "analysis": {"lambdas": [1.0], "x_max": 10.0}})],
    }
    return small[workload]
