"""Command-line front end.

Every subcommand reads one JSON config and returns its artifacts (JSON
documents and CSV tables); main writes them into the run directory next to
an echo of the config and a manifest listing the files.  Outputs are
deterministic: identical configs give bit-identical files.

Exit codes: 0 success, 1 config/input error, 2 numerical failure (including
verification residuals above their thresholds).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .closedforms import (
    SolitonParamsFD,
    SolitonParamsRD,
    profile_fd_focusing,
    soliton_profile_fd_defocusing,
    soliton_profile_rd,
)
from .core import (
    ConfigError,
    Coupling,
    FieldProfile,
    InvalidCoupling,
    JsonReader,
    NlsQuenchError,
    ScatteringData,
    Schwartz,
    _number,
    dump_json,
    load_json,
    make_kgrid,
    make_profile,
)
from .darboux import DarbouxStep, apply_bt, dual_quench
from .glm import radiative_part, reconstruct_field
from .oracle import StepperConfig, evolve_snapshots, isospectral_check
from .quench import (_factorization, classify_post_quench, evolve_data, quench_map,
                     verify_factorization)
from .zsdirect import IntegratorConfig, find_zeros, scatter_grid

__version__ = "0.1.0"


def _write_csv(path, header, columns):
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for i in range(rows):
            f.write(",".join(format(float(col[i]), ".17g") for col in columns) + "\n")


def _scattering_csv(sd: ScatteringData):
    return (["k", "re_a", "im_a", "re_b", "im_b", "abs_rho"],
            [sd.kgrid.samples, sd.a.real, sd.a.imag, sd.b.real, sd.b.imag,
             np.abs(sd.reflection_samples())])


def _profile_csv(p: FieldProfile):
    return ["x", "re_q", "im_q", "abs_q"], [p.x, p.values.real, p.values.imag, np.abs(p.values)]


def _build_profile(cfg: JsonReader) -> FieldProfile:
    if "profile" not in cfg:
        raise ConfigError("a profile block (or --builtin) is required")
    spec = cfg.block("profile")
    tol = spec("boundary_tol", 1e-8)
    if "path" in spec:
        path = spec("path", cast=str)
        p = FieldProfile.from_json_dict(load_json(path), f"profile file {path!r}")
        return replace(p, boundary_tol=tol).validate()
    kind = spec("builtin", None, str)
    if kind is None:
        raise ConfigError("profile needs either 'path' or 'builtin'")
    L = spec("L", 40.0)
    n = spec("n", 4001, int)
    x = np.linspace(-L, L, n)
    if kind == "zero":
        return make_profile(np.zeros(n, dtype=complex), L, Schwartz(), boundary_tol=tol)
    if kind == "sech":
        pars = SolitonParamsRD(A=spec("A", 1.0), V=spec("V", 0.0),
                               phi0=spec("phi0", 0.0), x0=spec("x0", 0.0))
        return soliton_profile_rd(pars, x, boundary_tol=tol)
    if kind == "gaussian":
        amp = spec("amp", 0.2)
        width = spec("width", 1.0)
        return make_profile(amp * np.exp(-(x / width) ** 2), L, Schwartz(), boundary_tol=tol)
    if kind == "fd_dark":
        pars = SolitonParamsFD(rho=spec("rho", 1.0), theta=spec("theta", np.pi / 2))
        return soliton_profile_fd_defocusing(pars, x, boundary_tol=tol)
    if kind == "fd_pedestal":
        return profile_fd_focusing(spec("Z", 2.0), x, boundary_tol=tol)
    raise ConfigError(f"unknown builtin profile {kind!r}")


def _coupling(cfg: JsonReader, key) -> Coupling:
    try:
        return Coupling(cfg.complex(key, part=0.0))
    except InvalidCoupling as exc:
        raise ConfigError(str(exc)) from exc


def _kgrid(spec: JsonReader, c: Coupling, p: FieldProfile):
    return make_kgrid(c, p.asymptotics, spec("k_max", 5.0), spec("n", 201, int))


def _integrator(cfg: JsonReader) -> IntegratorConfig:
    return IntegratorConfig(step=cfg.block("integrator")("step", None))


def _stepper(spec: JsonReader) -> StepperConfig:
    return StepperConfig(dt=spec("dt", 1e-4), n_modes=spec("n_modes", 2048, int))


# Each cmd_* reads every config value it needs before it computes, then
# returns ({file name: JSON document or (CSV header, columns)}, failure
# lines); only verify has failure lines.  main writes the run directory.
def cmd_scatter(cfg):
    p = _build_profile(cfg)
    c = _coupling(cfg, "coupling")
    kg = _kgrid(cfg.block("kgrid"), c, p)
    icfg = _integrator(cfg)
    sd = scatter_grid(p, c, kg, icfg, find_discrete=cfg("find_discrete", None, bool))
    return {"scattering.json": sd.to_json_dict(), "scattering.csv": _scattering_csv(sd)}, []


def cmd_quench(cfg):
    p = _build_profile(cfg)
    c = _coupling(cfg, "coupling")
    c_new = _coupling(cfg, "coupling_new")
    kg = _kgrid(cfg.block("kgrid"), c, p)
    icfg = _integrator(cfg)
    factorization = cfg("factorization", False, bool)
    report = quench_map(p, c, c_new, kg, icfg)
    payload = report.to_json_dict()
    payload["classification"] = classify_post_quench(report).to_json_dict()
    if factorization:
        fac = _factorization(p, report, icfg)  # no second scatter
        payload["factorization_residual"] = fac.max_residual
        payload["factorization"] = fac.to_json_dict()
    return {"quench.json": payload, "pre.csv": _scattering_csv(report.pre),
            "post.csv": _scattering_csv(report.post)}, []


def cmd_zeros(cfg):
    p = _build_profile(cfg)
    c = _coupling(cfg, "coupling")
    region = cfg("region", cast=lambda v: tuple(_number(x) for x in v))
    icfg = _integrator(cfg)
    if len(region) != 4:
        raise ConfigError("region must be [re_min, re_max, im_min, im_max]")
    zs = find_zeros(p, c, region, icfg)
    zs = sorted(zs, key=lambda z: (z.position.imag, z.position.real))
    return {"zeros.json": {"zeros": [z.to_json_dict() for z in zs]},
            "zeros.csv": (["re_k0", "im_k0", "order"],
                          [np.array([z.position.real for z in zs]),
                           np.array([z.position.imag for z in zs]),
                           np.array([float(z.order) for z in zs])])}, []


def cmd_evolve(cfg):
    p = _build_profile(cfg)
    c = _coupling(cfg, "coupling")
    t_final = cfg("time", 1.0)
    scfg = _stepper(cfg.block("stepper"))
    n_snap = max(1, cfg("snapshots", 1, int))
    times = [t_final * (i + 1) / n_snap for i in range(n_snap)]
    profiles = evolve_snapshots(p, c, times, scfg)
    snaps = [{**pt.to_json_dict(), "time": tv} for tv, pt in zip(times, profiles)]
    return {"snapshots.json": {"snapshots": snaps}, "final_profile.json": snaps[-1],
            "final_profile.csv": _profile_csv(profiles[-1])}, []


def cmd_reconstruct(cfg):
    path = cfg("data_path", cast=str)
    c0 = _coupling(cfg, "coupling0") if "coupling0" in cfg else None
    xspec = cfg.block("xgrid")
    L = xspec("L", 8.0)
    n = xspec("n", 321, int)
    t = cfg("time", 0.0)
    tol = cfg("boundary_tol", 0.05)
    sd = ScatteringData.from_json_dict(load_json(path), f"scattering data file {path!r}")
    if sd.discrete:
        raise ConfigError(
            "the data carries bound states and the reconstruction handles the radiative "
            "sector only; run darboux with a 'dual' block on the field instead"
        )
    field = reconstruct_field(radiative_part(evolve_data(sd, t)),
                              sd.coupling if c0 is None else c0,
                              np.linspace(-L, L, n), boundary_tol=tol)
    return {"field.json": field.to_json_dict(), "field.csv": _profile_csv(field)}, []


def cmd_darboux(cfg):
    p = _build_profile(cfg)
    c = _coupling(cfg, "coupling")
    icfg = _integrator(cfg)
    steps = []
    if "dual" in cfg:
        dual = cfg.block("dual")
        c0 = _coupling(dual, "coupling0")
        kg = _kgrid(dual.block("kgrid"), c, p)
        result = dual_quench(p, c, c0, kg, cfg=icfg,
                             exact_rescale=dual("exact_rescale", None, bool))
    else:
        steps = cfg.each("steps", DarbouxStep.from_json_dict, [])
        if not steps:
            raise ConfigError("darboux needs 'steps' or a 'dual' block")
        result = p
        for st in steps:
            result = apply_bt(result, c, st, icfg)
    return {"result_profile.json": result.to_json_dict(),
            "result_profile.csv": _profile_csv(result),
            "steps.json": {"steps": [st.to_json_dict() for st in steps]}}, []


def cmd_verify(cfg):
    p = _build_profile(cfg)
    c = _coupling(cfg, "coupling")
    icfg = _integrator(cfg)
    fac = cfg.block("factorization") if "factorization" in cfg or "coupling_new" in cfg else None
    iso = cfg.block("isospectral") if "isospectral" in cfg else None
    if fac is not None:
        c_new = _coupling(cfg, "coupling_new" if "coupling_new" in cfg else "coupling")
        fac_limits = fac("max_residual", 1e-5), fac("x_spread", 1e-6)
    if iso is not None:
        iso_time = iso("time", 0.5)
        scfg = _stepper(iso.block("stepper"))
        iso_limits = iso("amp_tol", 1e-4), iso("phase_tol", 1e-3)
    kg = None if fac is None and iso is None else _kgrid(cfg.block("kgrid"), c, p)
    report, measured = {}, []
    if fac is not None:
        result = verify_factorization(p, c, c_new, kg, cfg=icfg)
        report["factorization"] = result.to_json_dict()
        measured += zip(("factorization residual", "factorization x-spread"),
                        (result.max_residual, result.x_spread), fac_limits)
    if iso is not None:
        drift = isospectral_check(p, c, iso_time, kg, scfg, icfg)
        report["isospectral"] = drift.to_json_dict()
        measured += zip(("amplitude drift", "phase drift"),
                        (drift.amp_drift, drift.phase_drift), iso_limits)
    failures = [f"{what} {value:.3e}" for what, value, limit in measured if value > limit]
    report["failures"] = failures
    report["passed"] = not failures
    return {"verify.json": report}, failures


_COMMANDS = {
    "scatter": cmd_scatter,
    "quench": cmd_quench,
    "zeros": cmd_zeros,
    "evolve": cmd_evolve,
    "reconstruct": cmd_reconstruct,
    "darboux": cmd_darboux,
    "verify": cmd_verify,
}


def _write_run(out, command, cfg, artifacts):
    """Write every artifact (a JSON document, or a CSV header and columns)
    and the config echo into out, then a manifest listing what was written."""
    os.makedirs(out, exist_ok=True)
    files = {**artifacts, "config.json": cfg}
    for name, doc in files.items():
        path = os.path.join(out, name)
        if isinstance(doc, tuple):
            _write_csv(path, *doc)
        else:
            dump_json(doc, path)
    manifest = {"command": command, "files": sorted(files),
                "format_version": 1, "package": f"nlsquench {__version__}"}
    dump_json(manifest, os.path.join(out, "manifest.json"))


def _parser():
    ap = argparse.ArgumentParser(
        prog="nlsquench",
        description="Direct/inverse scattering runs for coupling quenches "
                    "of the nonlinear Schrodinger equation",
    )
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", required=False, help="JSON run configuration")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--builtin", help="shortcut: profile builtin name "
                                      "(overrides/creates the config's profile block)")
    ap.add_argument("--threads", type=int, default=1,
                    help="worker hint; accepted for interface compatibility, "
                         "the numerics are vectorised and deterministic")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 1
    try:
        cfg = JsonReader(load_json(args.config) if args.config else {})
        if args.builtin:
            cfg.data["profile"] = {**cfg.block("profile").data, "builtin": args.builtin}
        if args.command != "reconstruct":  # it reads coupling0 or the data's own
            cfg.data.setdefault("coupling", {"re": 0.0, "im": 1.0})
        artifacts, failures = _COMMANDS[args.command](cfg)
        _write_run(args.out, args.command, cfg.data, artifacts)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NlsQuenchError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
