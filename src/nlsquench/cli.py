"""Command-line front end.

Every subcommand reads one JSON config, writes a run directory containing
an echo of the config, the result artifacts (JSON + CSV projections) and a
manifest.  Outputs are deterministic: identical configs give bit-identical
files.

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
    Coupling,
    FieldProfile,
    NlsQuenchError,
    ScatteringData,
    Schwartz,
    dump_json,
    load_json,
    make_kgrid,
    make_profile,
)
from .darboux import DarbouxStep, apply_bt, dual_quench
from .glm import radiative_part, reconstruct_field
from .oracle import StepperConfig, evolve_snapshots, isospectral_check
from .quench import _factorization, classify_post_quench, quench_map, verify_factorization
from .zsdirect import IntegratorConfig, find_zeros, scatter_grid

__version__ = "0.1.0"


class ConfigError(Exception):
    pass


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_csv(path, header, columns):
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for i in range(rows):
            f.write(",".join(_fmt(col[i]) for col in columns) + "\n")


def _scattering_csv(path, sd: ScatteringData):
    rho = np.abs(sd.reflection_samples())
    _write_csv(path,
               ["k", "re_a", "im_a", "re_b", "im_b", "abs_rho"],
               [sd.kgrid.samples, sd.a.real, sd.a.imag, sd.b.real, sd.b.imag, rho])


def _profile_csv(path, p: FieldProfile):
    _write_csv(path, ["x", "re_q", "im_q", "abs_q"],
               [p.x, p.values.real, p.values.imag, np.abs(p.values)])


def _build_profile(cfg) -> FieldProfile:
    spec = cfg.get("profile")
    if spec is None:
        raise ConfigError("a profile block (or --builtin) is required")
    tol = float(spec.get("boundary_tol", 1e-8))
    if "path" in spec:
        if not os.path.exists(spec["path"]):
            raise ConfigError(f"profile file {spec['path']!r} does not exist")
        p = FieldProfile.from_json_dict(load_json(spec["path"]))
        return replace(p, boundary_tol=tol).validate()
    kind = spec.get("builtin")
    if kind is None:
        raise ConfigError("profile needs either 'path' or 'builtin'")
    L = float(spec.get("L", 40.0))
    n = int(spec.get("n", 4001))
    x = np.linspace(-L, L, n)
    if kind == "zero":
        return make_profile(np.zeros(n, dtype=complex), L, Schwartz(), boundary_tol=tol)
    if kind == "sech":
        pars = SolitonParamsRD(A=float(spec.get("A", 1.0)), V=float(spec.get("V", 0.0)),
                               phi0=float(spec.get("phi0", 0.0)), x0=float(spec.get("x0", 0.0)))
        return soliton_profile_rd(pars, x, boundary_tol=tol)
    if kind == "gaussian":
        amp = float(spec.get("amp", 0.2))
        width = float(spec.get("width", 1.0))
        return make_profile(amp * np.exp(-(x / width) ** 2), L, Schwartz(), boundary_tol=tol)
    if kind == "fd_dark":
        pars = SolitonParamsFD(rho=float(spec.get("rho", 1.0)),
                               theta=float(spec.get("theta", np.pi / 2)))
        return soliton_profile_fd_defocusing(pars, x, boundary_tol=tol)
    if kind == "fd_pedestal":
        return profile_fd_focusing(float(spec.get("Z", 2.0)), x, boundary_tol=tol)
    raise ConfigError(f"unknown builtin profile {kind!r}")


def _coupling(spec) -> Coupling:
    try:
        return Coupling(complex(float(spec.get("re", 0.0)), float(spec.get("im", 0.0))))
    except NlsQuenchError as exc:
        raise ConfigError(str(exc)) from exc


def _kgrid(spec, c: Coupling, p: FieldProfile):
    return make_kgrid(c, p.asymptotics, float(spec.get("k_max", 5.0)),
                      int(spec.get("n", 201)))


def _integrator(spec) -> IntegratorConfig:
    spec = spec or {}
    return IntegratorConfig(step=spec.get("step"))


def _stepper(spec) -> StepperConfig:
    spec = spec or {}
    return StepperConfig(dt=float(spec.get("dt", 1e-4)),
                         n_modes=int(spec.get("n_modes", 2048)))


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _finish(outdir, cfg, command, files):
    dump_json(cfg, os.path.join(outdir, "config.json"))
    manifest = {"command": command, "files": sorted(files + ["config.json"]),
                "format_version": 1, "package": f"nlsquench {__version__}"}
    dump_json(manifest, os.path.join(outdir, "manifest.json"))


def cmd_scatter(cfg, args) -> int:
    p = _build_profile(cfg)
    c = _coupling(cfg["coupling"])
    kg = _kgrid(cfg.get("kgrid", {}), c, p)
    sd = scatter_grid(p, c, kg, _integrator(cfg.get("integrator")),
                      find_discrete=cfg.get("find_discrete"))
    out = _outdir(args)
    dump_json(sd.to_json_dict(), os.path.join(out, "scattering.json"))
    _scattering_csv(os.path.join(out, "scattering.csv"), sd)
    _finish(out, cfg, "scatter", ["scattering.json", "scattering.csv"])
    return 0


def cmd_quench(cfg, args) -> int:
    p = _build_profile(cfg)
    c = _coupling(cfg["coupling"])
    c_new = _coupling(cfg["coupling_new"])
    kg = _kgrid(cfg.get("kgrid", {}), c, p)
    icfg = _integrator(cfg.get("integrator"))
    report = quench_map(p, c, c_new, kg, icfg)
    cls = classify_post_quench(report)
    payload = report.to_json_dict()
    payload["classification"] = cls.to_json_dict()
    files = ["quench.json", "pre.csv", "post.csv"]
    if cfg.get("factorization"):
        fac = _factorization(p, report, icfg)  # no second scatter
        payload["factorization_residual"] = fac.max_residual
        payload["factorization"] = fac.to_json_dict()
    out = _outdir(args)
    dump_json(payload, os.path.join(out, "quench.json"))
    _scattering_csv(os.path.join(out, "pre.csv"), report.pre)
    _scattering_csv(os.path.join(out, "post.csv"), report.post)
    _finish(out, cfg, "quench", files)
    return 0


def cmd_zeros(cfg, args) -> int:
    p = _build_profile(cfg)
    c = _coupling(cfg["coupling"])
    region = cfg.get("region")
    if region is None or len(region) != 4:
        raise ConfigError("zeros needs region = [re_min, re_max, im_min, im_max]")
    zs = find_zeros(p, c, tuple(float(v) for v in region), _integrator(cfg.get("integrator")))
    zs = sorted(zs, key=lambda z: (z.position.imag, z.position.real))
    out = _outdir(args)
    dump_json({"zeros": [z.to_json_dict() for z in zs]}, os.path.join(out, "zeros.json"))
    _write_csv(os.path.join(out, "zeros.csv"), ["re_k0", "im_k0", "order"],
               [np.array([z.position.real for z in zs]),
                np.array([z.position.imag for z in zs]),
                np.array([float(z.order) for z in zs])])
    _finish(out, cfg, "zeros", ["zeros.json", "zeros.csv"])
    return 0


def cmd_evolve(cfg, args) -> int:
    p = _build_profile(cfg)
    c = _coupling(cfg["coupling"])
    t_final = float(cfg.get("time", 1.0))
    scfg = _stepper(cfg.get("stepper"))
    n_snap = max(1, int(cfg.get("snapshots", 1)))
    times = [t_final * (i + 1) / n_snap for i in range(n_snap)]
    snaps = []
    for tv, pt in zip(times, evolve_snapshots(p, c, times, scfg)):
        d = pt.to_json_dict()
        d["time"] = tv
        snaps.append(d)
    out = _outdir(args)
    dump_json({"snapshots": snaps}, os.path.join(out, "snapshots.json"))
    final = FieldProfile.from_json_dict(snaps[-1])
    dump_json(snaps[-1], os.path.join(out, "final_profile.json"))
    _profile_csv(os.path.join(out, "final_profile.csv"), final)
    _finish(out, cfg, "evolve",
            ["snapshots.json", "final_profile.json", "final_profile.csv"])
    return 0


def cmd_reconstruct(cfg, args) -> int:
    path = cfg.get("data_path")
    if not path:
        raise ConfigError("reconstruct needs data_path pointing at scattering data")
    if not os.path.exists(path):
        raise ConfigError(f"scattering data file {path!r} does not exist")
    sd = ScatteringData.from_json_dict(load_json(path))
    if sd.discrete:
        raise ConfigError(
            "the data carries bound states and the reconstruction handles the radiative "
            "sector only; run darboux with a 'dual' block on the field instead"
        )
    c0 = _coupling(cfg["coupling0"]) if "coupling0" in cfg else sd.coupling
    xspec = cfg.get("xgrid", {})
    L = float(xspec.get("L", 8.0))
    n = int(xspec.get("n", 321))
    xs = np.linspace(-L, L, n)
    field = reconstruct_field(radiative_part(sd), c0, xs, t=float(cfg.get("time", 0.0)),
                              boundary_tol=float(cfg.get("boundary_tol", 0.05)))
    out = _outdir(args)
    dump_json(field.to_json_dict(), os.path.join(out, "field.json"))
    _profile_csv(os.path.join(out, "field.csv"), field)
    _finish(out, cfg, "reconstruct", ["field.json", "field.csv"])
    return 0


def cmd_darboux(cfg, args) -> int:
    p = _build_profile(cfg)
    c = _coupling(cfg["coupling"])
    icfg = _integrator(cfg.get("integrator"))
    if "dual" in cfg:
        dual = cfg["dual"]
        c0 = _coupling(dual["coupling0"])
        kg = _kgrid(dual.get("kgrid", {}), c, p)
        result = dual_quench(p, c, c0, kg, cfg=icfg,
                             exact_rescale=dual.get("exact_rescale"))
        steps_json = []
    else:
        steps = [DarbouxStep.from_json_dict(s) for s in cfg.get("steps", [])]
        if not steps:
            raise ConfigError("darboux needs 'steps' or a 'dual' block")
        result = p
        steps_json = []
        for st in steps:
            result = apply_bt(result, c, st, icfg)
            steps_json.append(st.to_json_dict())
    out = _outdir(args)
    dump_json(result.to_json_dict(), os.path.join(out, "result_profile.json"))
    _profile_csv(os.path.join(out, "result_profile.csv"), result)
    dump_json({"steps": steps_json}, os.path.join(out, "steps.json"))
    _finish(out, cfg, "darboux",
            ["result_profile.json", "result_profile.csv", "steps.json"])
    return 0


def cmd_verify(cfg, args) -> int:
    p = _build_profile(cfg)
    c = _coupling(cfg["coupling"])
    icfg = _integrator(cfg.get("integrator"))
    report = {}
    failures = []

    fac_cfg = cfg.get("factorization")
    if fac_cfg is not None or "coupling_new" in cfg:
        fac_cfg = fac_cfg or {}
        c_new = _coupling(cfg.get("coupling_new", cfg["coupling"]))
        kg = _kgrid(cfg.get("kgrid", {}), c, p)
        fac = verify_factorization(p, c, c_new, kg, cfg=icfg)
        report["factorization"] = fac.to_json_dict()
        if fac.max_residual > float(fac_cfg.get("max_residual", 1e-5)):
            failures.append(f"factorization residual {fac.max_residual:.3e}")
        if fac.x_spread > float(fac_cfg.get("x_spread", 1e-6)):
            failures.append(f"factorization x-spread {fac.x_spread:.3e}")

    iso_cfg = cfg.get("isospectral")
    if iso_cfg is not None:
        kg = _kgrid(cfg.get("kgrid", {}), c, p)
        drift = isospectral_check(p, c, float(iso_cfg.get("time", 0.5)), kg,
                                  _stepper(iso_cfg.get("stepper")), icfg)
        report["isospectral"] = drift.to_json_dict()
        if drift.amp_drift > float(iso_cfg.get("amp_tol", 1e-4)):
            failures.append(f"amplitude drift {drift.amp_drift:.3e}")
        if drift.phase_drift > float(iso_cfg.get("phase_tol", 1e-3)):
            failures.append(f"phase drift {drift.phase_drift:.3e}")

    report["failures"] = failures
    report["passed"] = not failures
    out = _outdir(args)
    dump_json(report, os.path.join(out, "verify.json"))
    _finish(out, cfg, "verify", ["verify.json"])
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 2 if failures else 0


_COMMANDS = {
    "scatter": cmd_scatter,
    "quench": cmd_quench,
    "zeros": cmd_zeros,
    "evolve": cmd_evolve,
    "reconstruct": cmd_reconstruct,
    "darboux": cmd_darboux,
    "verify": cmd_verify,
}


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
        cfg = {}
        if args.config:
            if not os.path.exists(args.config):
                raise ConfigError(f"config file {args.config!r} does not exist")
            cfg = load_json(args.config)
        if args.builtin:
            cfg.setdefault("profile", {})["builtin"] = args.builtin
        if args.command != "reconstruct":  # it reads coupling0 or the data's own
            cfg.setdefault("coupling", {"re": 0.0, "im": 1.0})
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NlsQuenchError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
