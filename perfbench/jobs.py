"""Seeded job lists for the three workloads.

A job is one ``nlsquench`` CLI call: a subcommand, a JSON config written
to disk, and the parameters its output check needs.  Every list has a
fixed shape (the same commands, grid sizes and number of bound states on
every seed); the seed only draws the physical parameters inside each slot,
so the work per run stays comparable across seeds while the inputs differ.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("census", "realaxis", "inverse")

# the job each workload runs once, untimed, at the end of set-up
WARMUP = {"census": "scatter-z0", "realaxis": "scatter-gauss-nozeros",
          "inverse": "darboux-roundtrip-0"}

# Sech profile shared by the zero-search jobs: criterion 04 runs at h = 0.02
# with an integrator step of 0.01.
_SECH_GRID = {"L": 25.0, "n": 2501, "boundary_tol": 1e-8}
_STEP = {"step": 0.01}
_CENSUS_K = {"k_max": 4.0, "n": 161}


@dataclass
class Job:
    name: str
    command: str
    config: dict
    check: str                      # key into checks.CHECKS
    expect: dict = field(default_factory=dict)
    config_path: str = ""


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _nu_in_band(rng, n_zeros):
    """Coupling strength nu with exactly n_zeros bound states of a sech at
    c = i nu: zeros sit at heights A (nu - m - 1/2), m = 0, 1, ...  The
    band runs over the whole interval between two thresholds, so a draw may
    land just above one and put a zero close to the real axis."""
    lo = 0.2 if n_zeros == 0 else n_zeros - 0.5
    return _u(rng, lo, n_zeros + 0.5)


def _sech(rng):
    return {"builtin": "sech", "A": _u(rng, 0.8, 1.25), "V": _u(rng, -0.6, 0.6),
            **_SECH_GRID}


def _census(rng):
    jobs = []
    for n in (0, 1, 2, 3):
        prof = _sech(rng)
        nu = _nu_in_band(rng, n)
        jobs.append(Job(
            f"scatter-z{n}", "scatter",
            {"profile": prof, "coupling": {"im": nu},
             "kgrid": _CENSUS_K, "integrator": _STEP},
            "zeros", {"A": prof["A"], "V": prof["V"], "nu": nu}))
    for n, n_new in ((1, 2), (3, 0)):
        prof = _sech(rng)
        nu, nu_new = _nu_in_band(rng, n), _nu_in_band(rng, n_new)
        jobs.append(Job(
            f"quench-z{n}to{n_new}", "quench",
            {"profile": prof, "coupling": {"im": nu}, "coupling_new": {"im": nu_new},
             "kgrid": _CENSUS_K, "integrator": _STEP},
            "quench_census", {"A": prof["A"], "V": prof["V"], "nu": nu, "nu_new": nu_new}))
    return jobs


def _realaxis(rng):
    jobs = []
    # defocusing sech on the widest k-grid, with step refinement: the
    # largest (steps x k) working set of any job
    prof = {"builtin": "sech", "A": _u(rng, 0.8, 1.2), "V": _u(rng, -0.5, 0.5),
            "L": 30.0, "n": 3001, "boundary_tol": 1e-8}
    jobs.append(Job("scatter-defoc-k961", "scatter",
                    {"profile": prof, "coupling": {"re": _u(rng, 0.3, 1.0)},
                     "kgrid": {"k_max": 5.0, "n": 961}, "integrator": _STEP},
                    "unit_det"))
    # focusing gaussian with the zero search switched off, resolved by the
    # profile grid itself (h = 0.01) instead of step refinement
    prof = {"builtin": "gaussian", "amp": _u(rng, 0.3, 0.8), "width": _u(rng, 0.8, 1.4),
            "L": 25.0, "n": 5001, "boundary_tol": 1e-8}
    jobs.append(Job("scatter-gauss-nozeros", "scatter",
                    {"profile": prof, "coupling": {"im": _u(rng, 0.5, 1.5)},
                     "kgrid": {"k_max": 5.0, "n": 401}, "find_discrete": False},
                    "unit_det"))
    # dark soliton at its reflectionless coupling c = 1 (criterion 06); the
    # ranges keep the width 2 rho sin(theta/2) >= 1.27, so the profile reaches
    # its background within boundary_tol on [-20, 20]
    rho, theta = _u(rng, 0.9, 1.2), _u(rng, math.pi / 2, 2 * math.pi / 3)
    jobs.append(Job("scatter-fd-dark", "scatter",
                    {"profile": {"builtin": "fd_dark", "rho": rho, "theta": theta,
                                 "L": 20.0, "n": 8001, "boundary_tol": 1e-8},
                     "coupling": {"re": 1.0}, "kgrid": {"k_max": 5.0, "n": 481}},
                    "dark", {"rho": rho, "theta": theta}))
    # bright soliton on a pedestal at its reflectionless coupling c = i
    # (criterion 05)
    Z = _u(rng, 1.7, 2.4)
    jobs.append(Job("scatter-fd-pedestal", "scatter",
                    {"profile": {"builtin": "fd_pedestal", "Z": Z,
                                 "L": 20.0, "n": 8001, "boundary_tol": 1e-8},
                     "coupling": {"im": 1.0}, "kgrid": {"k_max": 5.0, "n": 201}},
                    "pedestal", {"Z": Z}))
    # quench between two defocusing couplings (no bound states either side)
    prof = {"builtin": "sech", "A": _u(rng, 0.8, 1.2), **_SECH_GRID}
    jobs.append(Job("quench-defoc", "quench",
                    {"profile": prof, "coupling": {"re": _u(rng, 0.3, 0.8)},
                     "coupling_new": {"re": _u(rng, 0.9, 1.5)},
                     "kgrid": {"k_max": 5.0, "n": 401}, "integrator": _STEP},
                    "quench_defoc"))
    # factorisation Theta_-^dag S Theta_+ = S' (criterion 07)
    prof = {"builtin": "sech", "A": _u(rng, 0.8, 1.2), **_SECH_GRID}
    jobs.append(Job("verify-factorization", "verify",
                    {"profile": prof, "coupling": {"im": _u(rng, 0.8, 1.2)},
                     "coupling_new": {"im": _u(rng, 1.6, 2.2)},
                     "kgrid": {"k_max": 5.0, "n": 201}, "integrator": _STEP,
                     "factorization": {"max_residual": 1e-5, "x_spread": 1e-6}},
                    "verify"))
    # isospectrality against the split-step oracle (criterion 10)
    prof = {"builtin": "sech", "A": _u(rng, 0.8, 1.2), "L": 40.0, "n": 4001,
            "boundary_tol": 1e-10}
    jobs.append(Job("verify-isospectral", "verify",
                    {"profile": prof, "coupling": {"im": _u(rng, 1.2, 1.8)},
                     "kgrid": {"k_max": 5.0, "n": 201},
                     "isospectral": {"time": 0.5, "stepper": {"dt": 1e-4, "n_modes": 2048},
                                     "amp_tol": 1e-4, "phase_tol": 1e-3}},
                    "verify"))
    return jobs


def _gauss(rng, L):
    return {"builtin": "gaussian", "amp": _u(rng, 0.15, 0.3), "width": _u(rng, 0.8, 1.2),
            "L": L, "n": int(round(2 * L / 0.02)) + 1, "boundary_tol": 1e-10}


def _inverse(rng):
    """Returns (data-file jobs run during set-up, timed jobs)."""
    data, jobs = [], []
    # (N_k, N_x, half-width of the x window) per reconstruction (criterion 09)
    for i, (nk, nx, xl) in enumerate(((481, 121, 6.0), (481, 241, 8.0), (361, 201, 7.0),
                                      (241, 321, 8.0))):
        prof = _gauss(rng, 25.0)
        c = _u(rng, 0.3, 0.7)
        name = f"data-{i}"
        data.append(Job(name, "scatter",
                        {"profile": prof, "coupling": {"re": c},
                         "kgrid": {"k_max": 6.0, "n": nk}, "integrator": _STEP},
                        "unit_det"))
        jobs.append(Job(f"reconstruct-k{nk}-x{nx}", "reconstruct",
                        # the CLI demands a profile block even where it reads none
                        {"profile": {"builtin": "zero"}, "data_path": name,
                         "xgrid": {"L": xl, "n": nx}},
                        "reconstruct", {"amp": prof["amp"], "width": prof["width"]}))
    for i in range(2):
        # composite field-side quench on the generic pipeline (criterion 11)
        prof = _gauss(rng, 25.0)
        c = _u(rng, 0.4, 0.6)
        c0 = c * _u(rng, 0.4, 0.6)
        jobs.append(Job(f"darboux-dual-{i}", "darboux",
                        {"profile": prof, "coupling": {"re": c}, "integrator": _STEP,
                         "dual": {"coupling0": {"re": c0}, "kgrid": {"k_max": 6.0, "n": 241},
                                  "exact_rescale": False}},
                        "dual", {"c": c, "c0": c0}))
        # add one zero, then remove it again (criterion 08)
        amp, width = _u(rng, 0.6, 1.0), math.sqrt(2.0) * _u(rng, 0.9, 1.1)
        k0 = {"re": _u(rng, -0.4, 0.4), "im": _u(rng, 0.5, 0.9)}
        one = {"re": 1.0, "im": 0.0}
        jobs.append(Job(f"darboux-roundtrip-{i}", "darboux",
                        {"profile": {"builtin": "gaussian", "amp": amp, "width": width,
                                     "L": 40.0, "n": 8001, "boundary_tol": 1e-10},
                         "coupling": {"im": 1.0},
                         "steps": [{"k0": k0, "mu": one, "mode": "add"},
                                   {"k0": k0, "mu": one, "mode": "remove"}]},
                        "roundtrip", {"amp": amp, "width": width}))
    return data, jobs


def generate(workload, seed):
    """(data-file jobs, timed jobs) for one workload and seed; configs are
    not yet on disk."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "census":
        return [], _census(rng)
    if workload == "realaxis":
        return [], _realaxis(rng)
    return _inverse(rng)


def write_configs(jobs, cfg_dir, data_dir):
    """Write each job's config; a reconstruct job's data_path names a data
    job and is resolved to that job's scattering.json."""
    os.makedirs(cfg_dir, exist_ok=True)
    for job in jobs:
        cfg = dict(job.config)
        if "data_path" in cfg:
            cfg["data_path"] = os.path.join(data_dir, cfg["data_path"], "scattering.json")
        job.config_path = os.path.join(cfg_dir, job.name + ".json")
        with open(job.config_path, "w", encoding="utf-8") as f:
            json.dump(cfg, f, sort_keys=True, indent=1)
