"""Output checks, one per job kind, run outside the timed region.

Each check reads the job's run directory and returns a list of failure
messages (empty when the output is correct).  Tolerances are the release
tolerances of tests/test_acceptance.py, quoted by criterion number.
"""

from __future__ import annotations

import json
import os
import warnings

import numpy as np

from nlsquench.closedforms import (
    SolitonParamsFD,
    a_finite_defocusing_product,
    ab_finite_focusing,
    zeros_rapid,
)
from nlsquench.core import Coupling, FieldProfile, Schwartz, make_kgrid
from nlsquench.zsdirect import IntegratorConfig, scatter_grid

ZERO_TOL = 1e-6          # criterion 04: zero positions
DET_TOL = 1e-8           # criterion 02: |a|^2 - (c*/c)|b|^2 = 1
FD_TOL = 1e-5            # criteria 05 and 06: finite-density closed forms
FAC_RESIDUAL = 1e-5      # criterion 07
FAC_SPREAD = 1e-6
RESTORE_TOL = 1e-8       # criterion 08: add -> remove restores the field
REL_L2_TOL = 1e-2        # criterion 09: radiative reconstruction
RESCATTER_TOL = 5e-2     # criterion 11: data of the dual-quenched field
AMP_DRIFT = 1e-4         # criterion 10
PHASE_DRIFT = 1e-3


def _load(out, name):
    with open(os.path.join(out, name), encoding="utf-8") as f:
        return json.load(f)


def _coupling(d):
    return complex(d["re"], d["im"])


def _arrays(sd):
    k = np.asarray(sd["k"])
    a = np.asarray(sd["a_re"]) + 1j * np.asarray(sd["a_im"])
    b = np.asarray(sd["b_re"]) + 1j * np.asarray(sd["b_im"])
    return k, a, b


def _profile_values(d):
    x = -d["L"] + d["h"] * np.arange(len(d["re"]))
    return x, np.asarray(d["re"]) + 1j * np.asarray(d["im"])


def _det_failures(sd, label):
    _, a, b = _arrays(sd)
    c = _coupling(sd["coupling"])
    sign = 1.0 if c == 0 else (c.conjugate() / c).real
    defect = float(np.max(np.abs(np.abs(a) ** 2 - sign * np.abs(b) ** 2 - 1.0)))
    return [] if defect < DET_TOL else [f"{label}: det defect {defect:.3e}"]


def _zero_failures(found, nu, A, V, label):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expect = [z.position for z in zeros_rapid(nu, A, V)]
    got = sorted((complex(z["re"], z["im"]) for z in found), key=lambda z: (z.imag, z.real))
    expect.sort(key=lambda z: (z.imag, z.real))
    if len(got) != len(expect):
        return [f"{label}: found {len(got)} zeros, closed form has {len(expect)} "
                f"(nu={nu:.6f}, A={A:.4f})"]
    err = max((abs(g - e) for g, e in zip(got, expect)), default=0.0)
    return [] if err < ZERO_TOL else [f"{label}: zero position error {err:.3e}"]


def check_zeros(out, job):
    e = job.expect
    return _zero_failures(_load(out, "scattering.json")["zeros"], e["nu"], e["A"], e["V"],
                          "scatter")


def check_quench_census(out, job):
    e = job.expect
    q = _load(out, "quench.json")
    fails = _zero_failures(q["pre"]["zeros"], e["nu"], e["A"], e["V"], "pre")
    fails += _zero_failures(q["post"]["zeros"], e["nu_new"], e["A"], e["V"], "post")
    cls = q["classification"]
    if cls["found_N"] != cls["predicted_N"]:
        fails.append(f"found_N {cls['found_N']} != predicted_N {cls['predicted_N']}")
    return fails


def check_unit_det(out, job):
    return _det_failures(_load(out, "scattering.json"), "scatter")


def check_quench_defoc(out, job):
    q = _load(out, "quench.json")
    fails = _det_failures(q["pre"], "pre") + _det_failures(q["post"], "post")
    cls = q["classification"]
    if not cls["found_N"] == cls["predicted_N"] == 0:
        fails.append(f"defocusing quench reports {cls['found_N']} bound states")
    return fails


def _closed_form_failures(sd, a_ref, b_ref, label):
    _, a, b = _arrays(sd)
    a_err = float(np.max(np.abs(a - a_ref)))
    b_err = float(np.max(np.abs(b - b_ref)))
    fails = _det_failures(sd, label)
    if not (a_err < FD_TOL and b_err < FD_TOL):
        fails.append(f"{label}: closed-form a error {a_err:.3e}, b error {b_err:.3e}")
    return fails


def check_dark(out, job):
    e = job.expect
    sd = _load(out, "scattering.json")
    par = SolitonParamsFD(rho=e["rho"], theta=e["theta"])
    k, _, _ = _arrays(sd)
    a_ref = np.array([a_finite_defocusing_product(kv, 1, par) for kv in k])
    return _closed_form_failures(sd, a_ref, 0.0, "dark soliton")


def check_pedestal(out, job):
    e = job.expect
    sd = _load(out, "scattering.json")
    A = e["Z"] - 1.0 / e["Z"]
    k, _, _ = _arrays(sd)
    ref = np.array([ab_finite_focusing(kv, 1.0, A) for kv in k])
    return _closed_form_failures(sd, ref[:, 0], ref[:, 1], "pedestal soliton")


def check_verify(out, job):
    v = _load(out, "verify.json")
    fails = list(v["failures"]) if not v["passed"] else []
    fac = v.get("factorization")
    if fac is not None and not (fac["max_residual"] < FAC_RESIDUAL
                                and fac["x_spread"] < FAC_SPREAD):
        fails.append(f"factorization residual {fac['max_residual']:.3e}, "
                     f"x-spread {fac['x_spread']:.3e}")
    iso = v.get("isospectral")
    if iso is not None and not (iso["n_phase_points"] > 0 and iso["amp_drift"] < AMP_DRIFT
                                and iso["phase_drift"] < PHASE_DRIFT):
        fails.append(f"isospectral drift amp {iso['amp_drift']:.3e}, "
                     f"phase {iso['phase_drift']:.3e} on {iso['n_phase_points']} points")
    return fails


def _gaussian(x, amp, width):
    return amp * np.exp(-(x / width) ** 2)


def check_reconstruct(out, job):
    e = job.expect
    x, q = _profile_values(_load(out, "field.json"))
    truth = _gaussian(x, e["amp"], e["width"])
    err = float(np.linalg.norm(q - truth) / np.linalg.norm(truth))
    return [] if err < REL_L2_TOL else [f"relative L2 error {err:.3e}"]


def check_roundtrip(out, job):
    e = job.expect
    x, q = _profile_values(_load(out, "result_profile.json"))
    err = float(np.max(np.abs(q - _gaussian(x, e["amp"], e["width"]))))
    return [] if err < RESTORE_TOL else [f"field restore error {err:.3e}"]


def check_dual(out, job):
    """Re-scatter the rebuilt field at c0 and the source field at c on the
    job's own k-grid; the two data sets must agree."""
    e = job.expect
    d = _load(out, "result_profile.json")
    _, vals = _profile_values(d)
    rebuilt = FieldProfile(L=d["L"], h=d["h"], values=vals, asymptotics=Schwartz(),
                           boundary_tol=0.05)
    prof = job.config["profile"]
    x = np.linspace(-prof["L"], prof["L"], prof["n"])
    source = FieldProfile(L=prof["L"], h=x[1] - x[0],
                          values=_gaussian(x, prof["amp"], prof["width"]).astype(complex),
                          asymptotics=Schwartz(), boundary_tol=prof["boundary_tol"])
    c, c0 = Coupling(e["c"]), Coupling(e["c0"])
    kspec = job.config["dual"]["kgrid"]
    kg = make_kgrid(c, Schwartz(), kspec["k_max"], kspec["n"])
    cfg = IntegratorConfig(step=job.config["integrator"]["step"])
    sd0 = scatter_grid(source, c, kg, cfg, find_discrete=False)
    sd1 = scatter_grid(rebuilt, c0, kg, cfg, find_discrete=False)
    err = float(max(np.max(np.abs(sd1.a - sd0.a)), np.max(np.abs(sd1.b - sd0.b))))
    return [] if err < RESCATTER_TOL else [f"re-scatter data error {err:.3e}"]


CHECKS = {
    "zeros": check_zeros,
    "quench_census": check_quench_census,
    "unit_det": check_unit_det,
    "quench_defoc": check_quench_defoc,
    "dark": check_dark,
    "pedestal": check_pedestal,
    "verify": check_verify,
    "reconstruct": check_reconstruct,
    "roundtrip": check_roundtrip,
    "dual": check_dual,
}


def run_check(job, out):
    """Failure messages for one finished job."""
    return CHECKS[job.check](out, job)
