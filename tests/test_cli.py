import json
import os

import numpy as np
import pytest

from nlsquench import cli, oracle, quench, zsdirect
from nlsquench.cli import _COMMANDS, main
from nlsquench.core import (Coupling, FieldProfile, JsonReader, ScatteringData, Schwartz,
                            dump_json, load_json, make_profile)
from nlsquench.darboux import DarbouxStep


def _write(tmp_path, name, payload):
    """payload as a JSON file, or written as it is when it is bytes."""
    path = tmp_path / name
    if isinstance(payload, bytes):
        path.write_bytes(payload)
        return str(path)
    with open(path, "w") as f:
        json.dump(payload, f)
    return str(path)


def _read_csv(path):
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = [list(map(float, line.strip().split(","))) for line in f]
    return header, np.array(rows)


SCATTER_CFG = {
    "profile": {"builtin": "sech", "A": 1.0, "L": 30.0, "n": 1501,
                "boundary_tol": 1e-9},
    "coupling": {"im": 1.0},
    "kgrid": {"k_max": 3.0, "n": 31},
    "integrator": {"step": 0.02},
}


def test_scatter_soliton_columns(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SCATTER_CFG)
    out = str(tmp_path / "run")
    assert main(["scatter", "--config", cfg, "--out", out]) == 0
    header, rows = _read_csv(os.path.join(out, "scattering.csv"))
    assert header == ["k", "re_a", "im_a", "re_b", "im_b", "abs_rho"]
    a = rows[:, 1] + 1j * rows[:, 2]
    b = rows[:, 3] + 1j * rows[:, 4]
    assert np.max(np.abs(np.abs(a) - 1.0)) < 1e-6
    assert np.max(np.abs(b)) < 1e-6
    data = load_json(os.path.join(out, "scattering.json"))
    assert len(data["zeros"]) == 1
    assert abs(data["zeros"][0]["im"] - 0.5) < 1e-6


def test_scatter_zero_profile(tmp_path):
    cfg = {k: v for k, v in SCATTER_CFG.items() if k != "integrator"}
    cfg["profile"] = {"builtin": "zero", "L": 10.0, "n": 64}
    path = _write(tmp_path, "cfg.json", cfg)
    out = str(tmp_path / "run")
    assert main(["scatter", "--config", path, "--out", out]) == 0
    _, rows = _read_csv(os.path.join(out, "scattering.csv"))
    assert np.max(np.abs(rows[:, 1] - 1.0)) < 1e-12  # a = 1
    assert np.max(np.abs(rows[:, 3:5])) < 1e-12      # b = 0


def test_deterministic_outputs(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SCATTER_CFG)
    out1 = str(tmp_path / "r1")
    out2 = str(tmp_path / "r2")
    assert main(["scatter", "--config", cfg, "--out", out1]) == 0
    assert main(["scatter", "--config", cfg, "--out", out2]) == 0
    for name in ("scattering.json", "scattering.csv", "config.json", "manifest.json"):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2, name


def test_csv_round_trips_json(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SCATTER_CFG)
    out = str(tmp_path / "run")
    main(["scatter", "--config", cfg, "--out", out])
    data = load_json(os.path.join(out, "scattering.json"))
    _, rows = _read_csv(os.path.join(out, "scattering.csv"))
    # 17 significant digits reproduce the doubles exactly
    assert np.array_equal(rows[:, 0], np.array(data["k"]))
    assert np.array_equal(rows[:, 1], np.array(data["a_re"]))
    assert np.array_equal(rows[:, 4], np.array(data["b_im"]))


def test_missing_files_exit_one(tmp_path):
    out = str(tmp_path / "run")
    assert main(["scatter", "--config", str(tmp_path / "nope.json"), "--out", out]) == 1
    cfg = _write(tmp_path, "cfg.json",
                 {"profile": {"path": str(tmp_path / "missing_profile.json")}})
    assert main(["scatter", "--config", cfg, "--out", out]) == 1


def test_invalid_coupling_exit_one(tmp_path):
    cfg = dict(SCATTER_CFG)
    cfg["coupling"] = {"re": 1.0, "im": 1.0}
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["scatter", "--config", path, "--out", str(tmp_path / "run")]) == 1


def test_quench_classification(tmp_path):
    cfg = dict(SCATTER_CFG)
    cfg["coupling_new"] = {"im": 2.0}
    cfg["factorization"] = True
    path = _write(tmp_path, "cfg.json", cfg)
    out = str(tmp_path / "run")
    assert main(["quench", "--config", path, "--out", out]) == 0
    rep = load_json(os.path.join(out, "quench.json"))
    assert rep["classification"]["label"] == "pure-multisoliton"
    assert rep["classification"]["found_N"] == 2
    assert rep["classification"]["predicted_N"] == 2
    assert os.path.exists(os.path.join(out, "pre.csv"))
    assert os.path.exists(os.path.join(out, "post.csv"))
    assert rep["factorization_residual"] < 1e-5


def test_quench_factorization_reuses_the_quench_data(tmp_path, monkeypatch):
    # the report's a and b rebuild S bit for bit, so the factorisation check
    # needs no second scatter and writes what a fresh verify_factorization
    # would
    cfg = dict(SCATTER_CFG)
    cfg["coupling_new"] = {"im": 2.0}
    cfg["factorization"] = True
    path = _write(tmp_path, "cfg.json", cfg)
    calls = []
    scatter = zsdirect.scattering_batch

    def counted(*args, **kwargs):
        calls.append(args[1])
        return scatter(*args, **kwargs)

    for mod in (zsdirect, quench):
        monkeypatch.setattr(mod, "scattering_batch", counted)
    assert main(["quench", "--config", path, "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == 2

    def rescatter(p, report, icfg):
        return quench.verify_factorization(p, report.pre.coupling, report.post.coupling,
                                           report.pre.kgrid, icfg)

    monkeypatch.setattr(cli, "_factorization", rescatter)
    assert main(["quench", "--config", path, "--out", str(tmp_path / "ref")]) == 0
    assert len(calls) == 6
    got, want = (open(os.path.join(tmp_path, d, "quench.json"), "rb").read()
                 for d in ("run", "ref"))
    assert got == want


def test_zeros_command(tmp_path):
    cfg = dict(SCATTER_CFG)
    cfg["coupling"] = {"im": 2.0}
    cfg["region"] = [-1.0, 1.0, 0.05, 2.2]
    path = _write(tmp_path, "cfg.json", cfg)
    out = str(tmp_path / "run")
    assert main(["zeros", "--config", path, "--out", out]) == 0
    z = load_json(os.path.join(out, "zeros.json"))["zeros"]
    assert [round(v["im"], 4) for v in z] == [0.5, 1.5]


def test_reconstruct_refuses_bound_states(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", SCATTER_CFG)
    out = str(tmp_path / "scatter_run")
    main(["scatter", "--config", cfg, "--out", out])
    rcfg = _write(tmp_path, "rcfg.json",
                  {"profile": {"builtin": "zero"},
                   "data_path": os.path.join(out, "scattering.json"),
                   "coupling0": {"re": 0.5}})
    capsys.readouterr()
    code = main(["reconstruct", "--config", rcfg, "--out", str(tmp_path / "rec")])
    assert code == 1
    # the route that exists: darboux's dual block, run on the field
    err = capsys.readouterr().err
    assert "bound states" in err and "darboux with a 'dual' block on the field" in err


def test_reconstruct_radiative_data(tmp_path):
    cfg = {
        "profile": {"builtin": "gaussian", "amp": 0.2, "L": 30.0, "n": 1501,
                    "boundary_tol": 1e-9},
        "coupling": {"re": 0.5},
        "kgrid": {"k_max": 5.0, "n": 161},
        "integrator": {"step": 0.02},
    }
    path = _write(tmp_path, "cfg.json", cfg)
    srun = str(tmp_path / "scatter_run")
    assert main(["scatter", "--config", path, "--out", srun]) == 0
    rcfg = _write(tmp_path, "rcfg.json",
                  {"profile": {"builtin": "zero"},
                   "data_path": os.path.join(srun, "scattering.json"),
                   "xgrid": {"L": 4.0, "n": 41}})
    rrun = str(tmp_path / "rec")
    assert main(["reconstruct", "--config", rcfg, "--out", rrun]) == 0
    field = load_json(os.path.join(rrun, "field.json"))
    vals = np.array(field["re"]) + 1j * np.array(field["im"])
    xs = np.linspace(-4, 4, 41)
    assert np.max(np.abs(vals - 0.2 * np.exp(-xs ** 2))) < 5e-3


def test_evolve_snapshots(tmp_path):
    cfg = {
        "profile": {"builtin": "sech", "L": 20.0, "n": 1001, "boundary_tol": 1e-7},
        "coupling": {"im": 1.0},
        "time": 0.02,
        "snapshots": 2,
        "stepper": {"dt": 1e-3, "n_modes": 512},
    }
    path = _write(tmp_path, "cfg.json", cfg)
    out = str(tmp_path / "run")
    assert main(["evolve", "--config", path, "--out", out]) == 0
    snaps = load_json(os.path.join(out, "snapshots.json"))["snapshots"]
    assert [s["time"] for s in snaps] == [0.01, 0.02]
    vals = np.array(snaps[-1]["re"]) + 1j * np.array(snaps[-1]["im"])
    assert abs(np.max(np.abs(vals)) - 1.0) < 1e-4  # soliton peak survives


def test_evolve_snapshots_branch_off_one_trajectory(tmp_path, monkeypatch):
    # 0.0301 is not a multiple of dt, nor are its thirds: every snapshot
    # needs its own fractional step, and the full steps run once, 30 in all
    cfg = {
        "profile": {"builtin": "sech", "L": 20.0, "n": 1001, "boundary_tol": 1e-7},
        "coupling": {"im": 1.0},
        "time": 0.0301,
        "snapshots": 3,
        "stepper": {"dt": 1e-3, "n_modes": 512},
    }
    steps = []
    split = oracle._split_steps

    def counting(values, box, c2, rho2, dt, n_steps, max_amp):
        steps.append(n_steps)
        return split(values, box, c2, rho2, dt, n_steps, max_amp)

    monkeypatch.setattr(oracle, "_split_steps", counting)
    path = _write(tmp_path, "cfg.json", cfg)
    out = str(tmp_path / "run")
    assert main(["evolve", "--config", path, "--out", out]) == 0
    assert sum(steps) == 30 + 3
    monkeypatch.setattr(oracle, "_split_steps", split)
    snaps = load_json(os.path.join(out, "snapshots.json"))["snapshots"]
    p = cli._build_profile(JsonReader(cfg))
    scfg = oracle.StepperConfig(dt=1e-3, n_modes=512)
    for snap in snaps:
        want = oracle.evolve(p, Coupling(1j), snap["time"], scfg).values
        got = np.array(snap["re"]) + 1j * np.array(snap["im"])
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_darboux_command(tmp_path):
    cfg = {
        "profile": {"builtin": "zero", "L": 25.0, "n": 1251},
        "coupling": {"im": 1.0},
        "steps": [{"k0": {"re": 0.0, "im": 0.5}, "mu": {"re": 1.0, "im": 0.0},
                   "mode": "add"}],
    }
    path = _write(tmp_path, "cfg.json", cfg)
    out = str(tmp_path / "run")
    assert main(["darboux", "--config", path, "--out", out]) == 0
    prof = load_json(os.path.join(out, "result_profile.json"))
    vals = np.array(prof["re"]) + 1j * np.array(prof["im"])
    x = np.linspace(-25, 25, 1251)
    assert np.max(np.abs(np.abs(vals) - 1 / np.cosh(x))) < 1e-10


def test_darboux_dual_with_zeros_to_defocusing_fails(tmp_path):
    # the focusing gaussian carries one zero of a(k), which no field at the
    # defocusing target coupling can carry: a numerical failure, exit 2
    x = np.linspace(-25.0, 25.0, 2501)
    p = make_profile(np.exp(-x ** 2 / 2) * np.exp(0.2j * x), 25.0, Schwartz(),
                     boundary_tol=1e-10)
    prof = str(tmp_path / "profile.json")
    dump_json(p.to_json_dict(), prof)
    cfg = {"profile": {"path": prof, "boundary_tol": 1e-10}, "coupling": {"im": 1.0},
           "integrator": {"step": 0.01},
           "dual": {"coupling0": {"re": 0.5}, "kgrid": {"k_max": 6.0, "n": 241}}}
    path = _write(tmp_path, "cfg.json", cfg)
    out = str(tmp_path / "run")
    assert main(["darboux", "--config", path, "--out", out]) == 2
    assert not os.path.exists(os.path.join(out, "result_profile.json"))


def test_darboux_add_at_defocusing_coupling_exit_two(tmp_path, capsys):
    # this add used to exit 0 with a spike of max|q| = 434
    cfg = {"profile": {"builtin": "gaussian", "amp": 0.8, "L": 20.0, "n": 2001,
                       "boundary_tol": 1e-10},
           "coupling": {"re": 0.5},
           "steps": [{"k0": {"re": 0.3, "im": 0.7}, "mu": {"re": 1.0, "im": 0.0},
                      "mode": "add"}]}
    path = _write(tmp_path, "cfg.json", cfg)
    out = str(tmp_path / "run")
    capsys.readouterr()
    assert main(["darboux", "--config", path, "--out", out]) == 2
    assert "no zeros of a(k) at the defocusing coupling" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "result_profile.json"))


def test_verify_zero_field_passes(tmp_path):
    cfg = {
        "profile": {"builtin": "zero", "L": 10.0, "n": 128},
        "coupling": {"im": 1.0},
        "coupling_new": {"im": 2.0},
        "kgrid": {"k_max": 2.0, "n": 11},
        "factorization": {},
    }
    path = _write(tmp_path, "cfg.json", cfg)
    out = str(tmp_path / "run")
    assert main(["verify", "--config", path, "--out", out]) == 0
    rep = load_json(os.path.join(out, "verify.json"))
    assert rep["passed"] is True
    assert rep["factorization"]["max_residual"] < 1e-12


def test_verify_fails_on_tight_threshold(tmp_path):
    cfg = {
        "profile": {"builtin": "sech", "L": 25.0, "n": 1251, "boundary_tol": 1e-9},
        "coupling": {"im": 1.0},
        "coupling_new": {"im": 2.0},
        "kgrid": {"k_max": 2.0, "n": 11},
        "factorization": {"max_residual": 1e-15},
    }
    path = _write(tmp_path, "cfg.json", cfg)
    out = str(tmp_path / "run")
    assert main(["verify", "--config", path, "--out", out]) == 2


def test_verify_isospectral_block(tmp_path):
    cfg = {
        "profile": {"builtin": "sech", "L": 15.0, "n": 601, "boundary_tol": 1e-6},
        "coupling": {"im": 1.5},
        "kgrid": {"k_max": 3.0, "n": 31},
        "isospectral": {"time": 0.1, "stepper": {"dt": 1e-3, "n_modes": 256}},
    }
    out = str(tmp_path / "run")
    assert main(["verify", "--config", _write(tmp_path, "cfg.json", cfg), "--out", out]) == 0
    rep = load_json(os.path.join(out, "verify.json"))
    assert rep["passed"] is True and "factorization" not in rep
    iso = rep["isospectral"]
    assert iso["amp_drift"] < 1e-4 and iso["phase_drift"] < 1e-3
    assert iso["n_phase_points"] > 0
    # zero tolerances fail both drifts
    cfg["isospectral"].update(amp_tol=0.0, phase_tol=0.0)
    out = str(tmp_path / "tight")
    assert main(["verify", "--config", _write(tmp_path, "tight.json", cfg), "--out", out]) == 2
    failures = load_json(os.path.join(out, "verify.json"))["failures"]
    assert [f.split()[0] for f in failures] == ["amplitude", "phase"]


def test_scatter_fd_pedestal_builtin(tmp_path):
    # q = 1 - iA sech(Ax), A = Z - 1/Z, is reflectionless at c = i, with a
    # the Blaschke factor of mu = sqrt(k^2 + 1) (criterion 05 on a short grid)
    cfg = {"profile": {"builtin": "fd_pedestal", "Z": 2.0, "L": 15.0, "n": 1501},
           "coupling": {"im": 1.0}, "kgrid": {"k_max": 3.0, "n": 21}}
    out = str(tmp_path / "run")
    assert main(["scatter", "--config", _write(tmp_path, "cfg.json", cfg), "--out", out]) == 0
    _, rows = _read_csv(os.path.join(out, "scattering.csv"))
    mu = np.sqrt(rows[:, 0] ** 2 + 1.0)
    a = rows[:, 1] + 1j * rows[:, 2]
    assert np.max(np.abs(a - (mu - 0.75j) / (mu + 0.75j))) < 1e-5
    assert np.max(np.abs(rows[:, 3:5])) < 1e-5


def test_determinant_drift_exit_two(tmp_path, monkeypatch, capsys):
    # with the guard at 0, the round-off in det S of any nonzero field trips it
    monkeypatch.setattr(zsdirect, "_DET_GUARD", 0.0)
    x = np.linspace(-15.0, 15.0, 301)
    p = make_profile(0.8 / np.cosh(x), 15.0, Schwartz(), boundary_tol=1e-6)
    with pytest.raises(zsdirect.DeterminantDrift):
        zsdirect.scattering_batch(p, Coupling(1j), np.linspace(-2.0, 2.0, 11))
    cfg = {"profile": {"builtin": "sech", "L": 15.0, "n": 301, "boundary_tol": 1e-6},
           "coupling": {"im": 1.0}, "kgrid": {"k_max": 2.0, "n": 11}, "find_discrete": False}
    out = str(tmp_path / "run")
    assert main(["scatter", "--config", _write(tmp_path, "cfg.json", cfg), "--out", out]) == 2
    assert "det S drifted" in capsys.readouterr().err


def test_threads_flag_validated(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SCATTER_CFG)
    assert main(["scatter", "--config", cfg, "--out", str(tmp_path / "r"),
                 "--threads", "0"]) == 1


def test_non_finite_profile_exit_two(tmp_path):
    # one NaN sample used to skip the whole integration (a = 1, b = 0) and
    # one inf sample gave S = I, both with exit code 0
    x = np.linspace(-10.0, 10.0, 201)
    for bad in (np.nan, np.inf):
        vals = 0.5 * np.exp(-x ** 2) + 0j
        vals[100] = bad
        prof = _write(tmp_path, "profile.json",
                      {"L": 10.0, "h": 0.1, "asymptotics": {"kind": "schwartz"},
                       "re": vals.real.tolist(), "im": vals.imag.tolist()})
        cfg = _write(tmp_path, "cfg.json", {"profile": {"path": prof}})
        out = tmp_path / f"run_{bad}"
        assert main(["scatter", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "scattering.json").exists()


def _radiative_data(tmp_path):
    cfg = _write(tmp_path, "scfg.json",
                 {"profile": {"builtin": "gaussian", "amp": 0.2, "L": 20.0, "n": 401},
                  "coupling": {"re": 0.5},
                  "kgrid": {"k_max": 4.0, "n": 61}})
    out = str(tmp_path / "scatter_run")
    assert main(["scatter", "--config", cfg, "--out", out]) == 0
    return os.path.join(out, "scattering.json")


@pytest.mark.parametrize("entry, bad, cause", [
    ("a", np.nan, "must be finite"), ("a", 0.0, "a vanishes"),
    ("b", np.inf, "must be finite")], ids=["nan-a", "zero-a", "inf-b"])
def test_malformed_scattering_data_exit_two(tmp_path, capsys, entry, bad, cause):
    # each used to run GMRES to its iteration cap on NaN, with numpy
    # RuntimeWarnings, and exit 2 with "GMRES residual stalled at nan"
    data = load_json(_radiative_data(tmp_path))
    data[f"{entry}_re"][30] = bad
    data[f"{entry}_im"][30] = 0.0
    path = str(tmp_path / "bad.json")
    dump_json(data, path)
    cfg = _write(tmp_path, "rcfg.json", {"data_path": path, "xgrid": {"L": 4.0, "n": 41}})
    out = tmp_path / "rec"
    capsys.readouterr()
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
    assert cause in capsys.readouterr().err
    assert not (out / "field.json").exists()


def test_reconstruct_short_xgrid_exit_two(tmp_path):
    data = _radiative_data(tmp_path)
    for n in (0, 1, 8):
        cfg = _write(tmp_path, "rcfg.json", {"profile": {"builtin": "zero"},
                                             "data_path": data,
                                             "xgrid": {"L": 4.0, "n": n}})
        out = tmp_path / f"rec{n}"
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "field.json").exists()


def test_retired_config_keys_ignored(tmp_path):
    # resolvent.eps, resolvent.neumann_terms and stepper.dealias are no
    # longer read: configs that carry them write the same artifacts
    data = _radiative_data(tmp_path)
    rec = {"profile": {"builtin": "zero"}, "data_path": data,
           "xgrid": {"L": 4.0, "n": 41}}
    evo = {"profile": {"builtin": "sech", "L": 20.0, "n": 401, "boundary_tol": 1e-7},
           "time": 0.01, "stepper": {"dt": 1e-3, "n_modes": 256}}
    retired = [("reconstruct", rec, "field.json",
                {"resolvent": {"eps": 0.05, "neumann_terms": 3}}),
               ("evolve", evo, "final_profile.json",
                {"stepper": {"dt": 1e-3, "n_modes": 256, "dealias": False}})]
    for command, base, artifact, extra in retired:
        written = []
        for i, cfg in enumerate((base, {**base, **extra})):
            path = _write(tmp_path, f"{command}{i}.json", cfg)
            out = str(tmp_path / f"{command}{i}")
            assert main([command, "--config", path, "--out", out]) == 0
            with open(os.path.join(out, artifact), "rb") as f:
                written.append(f.read())
        assert written[0] == written[1]


def test_reconstruct_needs_no_profile_block(tmp_path):
    data = _radiative_data(tmp_path)
    base = {"data_path": data, "xgrid": {"L": 4.0, "n": 41}}
    written = []
    for i, cfg in enumerate((base, {**base, "profile": {"builtin": "zero"}})):
        path = _write(tmp_path, f"rcfg{i}.json", cfg)
        out = str(tmp_path / f"rec{i}")
        assert main(["reconstruct", "--config", path, "--out", out]) == 0
        with open(os.path.join(out, "field.json"), "rb") as f:
            written.append(f.read())
    assert written[0] == written[1]


def test_config_echo_coupling_only_where_read(tmp_path):
    # reconstruct reads coupling0 or the data's own coupling (c = 0.5 here),
    # so its echo carries no default coupling; scatter still defaults to c = i
    data = _radiative_data(tmp_path)
    rcfg = _write(tmp_path, "rcfg.json", {"data_path": data, "xgrid": {"L": 4.0, "n": 41}})
    out = str(tmp_path / "rec")
    assert main(["reconstruct", "--config", rcfg, "--out", out]) == 0
    assert "coupling" not in load_json(os.path.join(out, "config.json"))
    scfg = _write(tmp_path, "scfg_default.json",
                  {k: v for k, v in SCATTER_CFG.items() if k != "coupling"})
    out = str(tmp_path / "scat")
    assert main(["scatter", "--config", scfg, "--out", out]) == 0
    assert load_json(os.path.join(out, "config.json"))["coupling"] == {"re": 0.0, "im": 1.0}


def test_profile_file_boundary_tol(tmp_path):
    # a profile file is validated at the block's boundary_tol, as builtins are
    x = np.linspace(-10.0, 10.0, 201)
    vals = 0.5 * np.exp(-x ** 2) + 5e-8
    prof = _write(tmp_path, "profile.json",
                  {"L": 10.0, "h": 0.1, "asymptotics": {"kind": "schwartz"},
                   "re": vals.tolist(), "im": np.zeros_like(x).tolist()})
    for block, code in (({"path": prof, "boundary_tol": 1e-6}, 0), ({"path": prof}, 2)):
        cfg = _write(tmp_path, "cfg.json", {"profile": block, "coupling": {"re": 0.5},
                                            "kgrid": {"k_max": 3.0, "n": 31}})
        out = tmp_path / f"run{code}"
        assert main(["scatter", "--config", cfg, "--out", str(out)]) == code
        assert (out / "scattering.json").exists() == (code == 0)


def test_reconstruct_gapped_grid_exit_two(tmp_path):
    # fd_dark data at c = 1 sit on a gapped k-grid, which has no Toeplitz kernel
    cfg = _write(tmp_path, "scfg.json",
                 {"profile": {"builtin": "fd_dark", "L": 15.0, "n": 1501,
                              "boundary_tol": 1e-6},
                  "coupling": {"re": 1.0}, "kgrid": {"k_max": 4.0, "n": 40},
                  "find_discrete": False})
    srun = str(tmp_path / "scatter_run")
    assert main(["scatter", "--config", cfg, "--out", srun]) == 0
    rcfg = _write(tmp_path, "rcfg.json",
                  {"data_path": os.path.join(srun, "scattering.json"),
                   "xgrid": {"L": 4.0, "n": 41}})
    out = tmp_path / "rec"
    assert main(["reconstruct", "--config", rcfg, "--out", str(out)]) == 2
    assert not (out / "field.json").exists()


def test_reconstruct_zero_coupling_exit_two(tmp_path, capsys):
    # -2/c in the kernel used to end in a ZeroDivisionError traceback, for a
    # zero coupling0 and for data scattered at c = 0 with no coupling0
    data = _radiative_data(tmp_path)
    free = _write(tmp_path, "free.json",
                  {"profile": {"builtin": "gaussian", "amp": 0.2, "L": 20.0, "n": 401},
                   "coupling": {"re": 0.0, "im": 0.0}, "kgrid": {"k_max": 4.0, "n": 61}})
    free_run = str(tmp_path / "free_run")
    assert main(["scatter", "--config", free, "--out", free_run]) == 0
    for i, cfg in enumerate(({"data_path": data, "coupling0": {"re": 0.0, "im": 0.0}},
                             {"data_path": os.path.join(free_run, "scattering.json")})):
        path = _write(tmp_path, f"rcfg{i}.json", {**cfg, "xgrid": {"L": 4.0, "n": 41}})
        out = tmp_path / f"rec{i}"
        capsys.readouterr()
        assert main(["reconstruct", "--config", path, "--out", str(out)]) == 2
        assert "nonzero coupling" in capsys.readouterr().err
        assert not (out / "field.json").exists()


def test_integrator_step_exit_codes(tmp_path):
    # a zero step used to escape main as an OverflowError; a negative step
    # exits 2 as before, and a string that is a number is read as one
    for step, code in ((0, 2), (-0.01, 2), ("0.02", 0)):
        cfg = _write(tmp_path, "cfg.json", {**SCATTER_CFG, "integrator": {"step": step}})
        out = tmp_path / f"run{step}"
        assert main(["scatter", "--config", cfg, "--out", str(out)]) == code
        assert (out / "scattering.json").exists() == (code == 0)


_MALFORMED_BASE = {
    "profile": {"builtin": "gaussian", "amp": 0.2, "L": 10.0, "n": 201},
    "coupling": {"im": 1.0},
    "coupling_new": {"im": 2.0},
    "region": [-1.0, 1.0, 0.05, 1.0],
    "time": 0.01,
    "steps": [{"k0": {"re": 0.0, "im": 0.5}, "mu": {"re": 1.0, "im": 0.0}, "mode": "add"}],
}
_PROFILE_READERS = ("scatter", "quench", "zeros", "evolve", "darboux", "verify")
_INTEGRATOR_READERS = ("scatter", "quench", "zeros", "darboux", "verify")
_DUAL = {"coupling0": {"re": 0.5}, "kgrid": {"n": None}}
MALFORMED = (
    [(cmd, "list", "the config") for cmd in sorted(_COMMANDS)]
    + [(cmd, {"coupling": 5}, "coupling") for cmd in _PROFILE_READERS]
    + [("reconstruct", {"coupling0": 5}, "coupling0")]
    + [(cmd, {"profile": "sech"}, "profile") for cmd in _PROFILE_READERS]
    + [("verify", {"factorization": True}, "factorization")]
    + [(cmd, {"kgrid": {"n": None}}, "kgrid.n") for cmd in ("scatter", "quench", "verify")]
    + [("darboux", {"dual": _DUAL}, "dual.kgrid.n")]
    + [("evolve", {"stepper": {"dt": None}}, "stepper.dt"),
       ("verify", {"isospectral": {"stepper": {"dt": None}}}, "isospectral.stepper.dt")]
    + [(cmd, {"integrator": {"step": "fine"}}, "integrator.step")
       for cmd in _INTEGRATOR_READERS]
)

# the number keys each command reads (with the builtin gaussian; the other
# builtins' keys under their own builtin), its integer keys, and its flags
_PROFILE_KEYS = ["profile.L", "profile.n", "profile.amp", "profile.width", "profile.boundary_tol",
                 "coupling.re", "coupling.im"]
_NUMBER_KEYS = {
    "scatter": _PROFILE_KEYS + ["kgrid.k_max", "kgrid.n", "integrator.step", "profile.A",
                                "profile.V", "profile.phi0", "profile.x0", "profile.rho",
                                "profile.theta", "profile.Z"],
    "quench": _PROFILE_KEYS + ["coupling_new.re", "coupling_new.im", "kgrid.k_max", "kgrid.n"],
    "zeros": _PROFILE_KEYS + ["integrator.step"],
    "evolve": _PROFILE_KEYS + ["time", "snapshots", "stepper.dt", "stepper.n_modes"],
    "reconstruct": ["coupling0.re", "coupling0.im", "xgrid.L", "xgrid.n", "time", "boundary_tol"],
    "darboux": _PROFILE_KEYS + ["dual.coupling0.re", "dual.coupling0.im", "dual.kgrid.k_max",
                                "dual.kgrid.n"],
    "verify": _PROFILE_KEYS + ["coupling_new.im", "kgrid.n", "factorization.max_residual",
                               "factorization.x_spread", "isospectral.time", "isospectral.amp_tol",
                               "isospectral.phase_tol", "isospectral.stepper.dt",
                               "isospectral.stepper.n_modes"],
}
_INTEGER_KEYS = [("scatter", "profile.n"), ("scatter", "kgrid.n"), ("evolve", "snapshots"),
                 ("evolve", "stepper.n_modes"), ("reconstruct", "xgrid.n"),
                 ("darboux", "dual.kgrid.n"), ("verify", "isospectral.stepper.n_modes")]
_FLAGS = [("scatter", "find_discrete"), ("quench", "factorization"),
          ("darboux", "dual.exact_rescale")]
_BUILTIN_OF = {"A": "sech", "V": "sech", "phi0": "sech", "x0": "sech", "rho": "fd_dark",
               "theta": "fd_dark", "Z": "fd_pedestal"}


def _config_with(key, value):
    """_MALFORMED_BASE with the dotted key set to value."""
    cfg = json.loads(json.dumps(_MALFORMED_BASE))
    if key.startswith("dual."):
        cfg["dual"] = {"coupling0": {"re": 0.5}}
    *blocks, last = key.split(".")
    if blocks == ["profile"] and last in _BUILTIN_OF:
        cfg["profile"]["builtin"] = _BUILTIN_OF[last]
    block = cfg
    for name in blocks:
        block = block.setdefault(name, {})
    block[last] = value
    return cfg


# a boolean at a number key, a fraction at an integer key and anything but
# true or false at a flag used to be read as a value
WRONG_TYPE = ([(cmd, key, True) for cmd, keys in _NUMBER_KEYS.items() for key in keys]
              + [("zeros", "region", [True, 1.0, 0.05, 1.0])]
              + [(cmd, key, 1.5) for cmd, key in _INTEGER_KEYS]
              + [(cmd, key, bad) for cmd, key in _FLAGS for bad in ("false", 0, 1.5)])


@pytest.mark.parametrize(
    "command, change, key",
    MALFORMED + [(cmd, _config_with(key, bad), key) for cmd, key, bad in WRONG_TYPE],
    ids=[f"{c}-{k}" for c, _, k in MALFORMED]
    + [f"{c}-{k}-{json.dumps(bad)}" for c, k, bad in WRONG_TYPE])
def test_malformed_config_exit_one(tmp_path, capsys, command, change, key):
    # each used to escape main as an AttributeError or a TypeError; verify
    # with "factorization": true did so only after the whole Theta pass
    if change == "list":
        cfg = [_MALFORMED_BASE]
    else:
        data = _write(tmp_path, "data.json", {})  # read only after coupling0
        cfg = {**_MALFORMED_BASE, "data_path": data, **change}
    out = tmp_path / "run"
    capsys.readouterr()
    assert main([command, "--config", _write(tmp_path, "cfg.json", cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


# --- malformed input documents: profile files, data files, dressing steps ---

_PROFILE_DOC = {"L": 10.0, "h": 0.1, "asymptotics": {"kind": "finite_density", "rho": 1.0,
                                                      "theta": 0.0},
                "re": [1.0] * 201, "im": [0.0] * 201}
_DATA_DOC = {"k": [-2.0, -1.0, 1.0, 2.0], "gap": [-0.5, 0.5],
             "a_re": [1.0] * 4, "a_im": [0.0] * 4, "b_re": [0.0] * 4, "b_im": [0.0] * 4,
             "zeros": [{"re": 0.0, "im": 0.5, "order": 1, "norming": {"re": 1.0, "im": 0.0}}],
             "coupling": {"re": 0.5, "im": 0.0}}
_STEPS_DOC = {"steps": [{"k0": {"re": 0.0, "im": 0.5}, "mu": {"re": 1.0, "im": 0.0},
                         "mode": "add"}]}
_OPTIONAL = {"gap", "zeros", "zeros[0].order", "zeros[0].norming"}


def _dotted(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _key_paths(doc, prefix=()):
    """Every key path of doc, descending into objects and lists of objects."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield prefix + (key,)
        if isinstance(value, dict) or (isinstance(value, list) and isinstance(value[0], dict)):
            yield from _key_paths(value, prefix + (key,))


def _mutations(kind, doc):
    """(kind, path, new value or _REMOVE) for every single-key mutation."""
    out = []
    for path in _key_paths(doc):
        value = doc
        for key in path:
            value = value[key]
        if not isinstance(path[-1], int) and _dotted(path) not in _OPTIONAL:
            out.append((kind, path, _REMOVE))
        out += [(kind, path, bad) for bad in (None, "x", ["x"], [True], {"x": 1})]
        out.append((kind, path, True if isinstance(value, (int, float)) else 1.5))
    return out


_REMOVE = object()
# the cases that escaped main, exited 2 or named no key before the reader
# read every input document
_ESCAPED = [("profile", ("asymptotics",), "schwartz"), ("profile", (), [_PROFILE_DOC]),
            ("profile", ("asymptotics", "kind"), "dark"), ("data", ("coupling",), 5),
            ("data", ("zeros",), ["x"]), ("data", ("a_im",), _REMOVE),
            ("steps", ("steps", 0, "k0"), 0.5), ("steps", ("steps", 0, "mu"), _REMOVE)]
# files that are not JSON or not UTF-8, (re, im) lists of unequal lengths
# and a fractional order, which exited 1 naming neither file nor key, or ran
_UNREADABLE = [("profile", (), b'{"L": 10'), ("data", (), b"\xff\xfe"),
               ("profile", ("im",), [0.0] * 3), ("data", ("a_im",), [0.0] * 3),
               ("data", ("b_re",), [0.0] * 5), ("data", ("zeros", 0, "order"), 1.5)]
INPUT_MUTATIONS = (_ESCAPED + _mutations("profile", _PROFILE_DOC)
                   + _mutations("data", _DATA_DOC) + _mutations("steps", _STEPS_DOC)
                   + _UNREADABLE)


def _label(new):
    return repr(new) if isinstance(new, bytes) else json.dumps(new)[:12]


def _mutated(doc, path, new):
    if not path:
        return new
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if new is _REMOVE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


def _input_run(tmp_path, kind, doc):
    """(command, config) that reads doc as a profile file, a data file or
    the config's dressing steps."""
    if kind == "steps":
        return "darboux", {"profile": {"builtin": "zero", "L": 25.0, "n": 501},
                           "coupling": {"im": 1.0}, **doc}
    path = _write(tmp_path, f"{kind}.json", doc)
    if kind == "profile":
        return "scatter", {"profile": {"path": path}, "coupling": {"re": 0.5},
                           "kgrid": {"k_max": 3.0, "n": 21}, "find_discrete": False}
    return "reconstruct", {"data_path": path, "xgrid": {"L": 4.0, "n": 41}}


def test_input_documents_are_valid(tmp_path, capsys):
    # the unmutated documents run (the data carry a zero, which reconstruct
    # refuses by name) and read back as written
    for kind, doc, code in (("profile", _PROFILE_DOC, 0), ("steps", _STEPS_DOC, 0),
                            ("data", _DATA_DOC, 1)):
        command, cfg = _input_run(tmp_path, kind, doc)
        capsys.readouterr()
        assert main([command, "--config", _write(tmp_path, "cfg.json", cfg),
                     "--out", str(tmp_path / kind)]) == code
    assert "bound states" in capsys.readouterr().err
    assert ScatteringData.from_json_dict(_DATA_DOC).to_json_dict() == _DATA_DOC
    assert FieldProfile.from_json_dict(_PROFILE_DOC).to_json_dict() == _PROFILE_DOC
    assert DarbouxStep.from_json_dict(_STEPS_DOC["steps"][0]).to_json_dict() \
        == _STEPS_DOC["steps"][0]


@pytest.mark.parametrize("gap", [[0.5, -0.5], [float("nan")] * 2], ids=["reversed", "nan"])
def test_malformed_data_gap_exit_two(tmp_path, capsys, gap):
    # the grid refuses a gap that is not a finite interval, as it refuses
    # non-finite or unsorted samples
    command, cfg = _input_run(tmp_path, "data", dict(_DATA_DOC, gap=gap))
    out = tmp_path / "run"
    capsys.readouterr()
    assert main([command, "--config", _write(tmp_path, "cfg.json", cfg), "--out", str(out)]) == 2
    assert "gap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, path, new", INPUT_MUTATIONS,
    ids=[f"{kind}-{_dotted(path) or 'top'}-{'removed' if new is _REMOVE else _label(new)}"
         for kind, path, new in INPUT_MUTATIONS])
def test_malformed_input_document_exit_one(tmp_path, capsys, kind, path, new):
    base = {"profile": _PROFILE_DOC, "data": _DATA_DOC, "steps": _STEPS_DOC}[kind]
    command, cfg = _input_run(tmp_path, kind, _mutated(base, path, new))
    out = tmp_path / "run"
    capsys.readouterr()
    assert main([command, "--config", _write(tmp_path, "cfg.json", cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and _dotted(path) in err
    if kind != "steps":
        assert f"{kind}.json" in err
    assert not out.exists()
