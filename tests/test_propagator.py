"""The vectorised RK4 propagator against plain per-step loops
(rk4_reference), including its chunk edges, and the divergence guard of
every integration built on it."""

import tracemalloc

import numpy as np
import pytest

import rk4_reference as ref
from nlsquench import quench, zsdirect
from nlsquench.core import Coupling, FiniteDensity, Schwartz, make_kgrid, make_profile
from nlsquench.closedforms import (
    SolitonParamsFD,
    SolitonParamsRD,
    profile_fd_focusing,
    soliton_profile_fd_defocusing,
    soliton_profile_rd,
)
from nlsquench.darboux import DarbouxStep, _columns_full, apply_bt
from nlsquench.quench import _theta_pass, higher_level_theta
from nlsquench.zsdirect import (
    BranchPoint,
    IntegratorConfig,
    IntegratorDiverged,
    _propagate,
    analytic_continue_a,
    find_zeros,
    jost_plus,
    norming_constant,
    scattering_batch,
)
from conftest import grid

RTOL = 1e-12
C = Coupling(1.3j)


@pytest.fixture(scope="module")
def sech10():
    return soliton_profile_rd(SolitonParamsRD(A=1.0, V=0.3), grid(10.0, 0.05),
                              boundary_tol=1e-3)


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _ks(nk):
    return np.array([0.7]) if nk == 1 else np.linspace(-4.0, 4.0, nk)


@pytest.mark.parametrize("step", [None, 0.025])
@pytest.mark.parametrize("nk", [1, 3, 161])
def test_scattering_batch_matches_loop(sech10, nk, step):
    cfg = IntegratorConfig(step=step)
    k = _ks(nk)
    assert _rel(scattering_batch(sech10, C, k, cfg), ref.transfer(sech10, C, k, cfg)) < RTOL


@pytest.mark.parametrize("c", [Coupling(1.3j), Coupling(0.6), Coupling(0.0)],
                         ids=["sigma-1", "sigma+1", "free"])
@pytest.mark.parametrize("L, step", [(25.0, None), (24.99, 0.01)], ids=["h0.02", "step0.01"])
def test_scattering_batch_rapid_decay_table_matches_loop(c, L, step):
    # rows of four steps in u = e^{iks}; at k = +-12 the unrefined grid has
    # |ks| = 0.24.  L = 24.99 with step 0.01 gives 4998 steps, not a
    # multiple of 4, so the last row is padded with identities
    p = soliton_profile_rd(SolitonParamsRD(A=1.1, V=0.3), grid(L, 0.02), boundary_tol=1e-8)
    cfg = IntegratorConfig(step=step)
    lo, hi = zsdirect._support_bounds(p)
    assert step is None or (hi - lo) * cfg.substeps(p.h) % 4
    k = np.concatenate([[-12.0, 12.0], np.linspace(-5.0, 5.0, 21)])
    assert _rel(scattering_batch(p, c, k, cfg), ref.transfer(p, c, k, cfg)) < RTOL


@pytest.mark.parametrize("sigma", [-1.0, 1.0])
def test_fused_rows_are_products_of_steps(sigma):
    # a row of 4 steps, evaluated at k, equals the ordered product of its
    # steps, each turned by its own row phase
    rng = np.random.default_rng(7)
    q = tuple(rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10)))
    x, s = 0.3 - 0.05 * np.arange(10), -0.05
    c = Coupling(0.9j if sigma < 0 else 0.9)
    k = np.array([-12.0, -0.7, 0.0, 2.5])
    steps, _ = zsdirect._decay_steps(zsdirect._decay_table(c, q, x, s), k)
    rows, _ = zsdirect._decay_steps(zsdirect._decay_table(c, q, x, s, levels=2), k)
    single, fused = steps(0, 10), rows(0, 3)
    for r in range(3):
        want = zsdirect._EYE[:2]
        for j in range(4 * r, min(4 * r + 4, 10)):
            want = zsdirect._mul(zsdirect._rows(single, j), want, sigma)
        got = zsdirect._rows(fused, r)
        assert max(_rel(g, w) for g, w in zip(got, want)) < RTOL


def _leval(p, v):
    """A Laurent entry (lo, coef) of the step tables at v, row-wise."""
    if p is None:
        return 0.0
    lo, coef = p
    return sum(c * v ** (lo + i) for i, c in enumerate(coef))


def _laurent(rng, lo, n, rows=6):
    return lo, rng.standard_normal((n, rows)) + 1j * rng.standard_normal((n, rows))


@pytest.mark.parametrize("sigma", [-1.0, 1.0, None], ids=["sigma-1", "sigma+1", "four"])
def test_laurent_product_matches_mul(sigma):
    # with |u| = 1 in sigma form (conj(p(u)) is a Laurent polynomial only
    # there); any z in four entries; None entries and negative lo included
    rng = np.random.default_rng(3)
    four = sigma is None
    a, b = (tuple(None if s is None else _laurent(rng, *s) for s in shapes) for shapes in (
        [(-2, 3), (1, 2), None, (0, 4)] if four else [(-2, 3), (1, 2)],
        [None, (-1, 3), (2, 1), (0, 2)] if four else [None, (-3, 4)]))
    v = 0.4 - 1.3j if four else np.exp(0.7j)
    got = zsdirect._lmul(a, b, sigma)
    want = zsdirect._mul(tuple(_leval(e, v) for e in a), tuple(_leval(e, v) for e in b), sigma)
    for g, w in zip(got, want):
        assert np.max(np.abs(_leval(g, v) - w)) < 1e-14 * max(1.0, np.max(np.abs(w)))


@pytest.mark.parametrize("form", ["four", "sigma"])
def test_rk4_terms_sum_to_one_reference_step(form):
    # four entries: the Jost-column generator [[0, d1], [d2, z]] at complex
    # k (z = 2ik); sigma form: the rapid-decay frame generator at real k,
    # first rows (0, d1 u^e) relative to the step start, u = e^{iks}
    rng = np.random.default_rng(5)
    s, c = 0.05, Coupling(1.3j)
    sigma = c.involution_sign
    d1 = c.value * (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
    d2 = sigma * np.conj(d1)
    k = np.array([0.3 + 2.5j, -1.0 + 0.01j, 2.0, -6.0 + 1.0j]) if form == "four" else \
        np.array([-12.0, -0.7, 0.0, 2.5])
    if form == "four":
        z = (1, np.ones((1, 4), dtype=np.complex128))
        g = [(None, (0, a[None]), (0, b[None]), z) for a, b in zip(d1, d2)]
        v, sig = 2j * k, None
    else:
        g = [(None, (e, a[None])) for e, a in enumerate(d1)]
        v, sig = np.exp(1j * k * s), sigma
    terms = zsdirect._rk4_terms((g[0], g[1], g[1], g[2]), s, sig)
    step = zsdirect._lsum(*(t for grade in terms for t in grade))
    got = zsdirect._as_array(tuple(_leval(e, v) for e in step), sig) + np.eye(2)

    def gen_at(i):
        out = np.zeros((4, 2, 2), dtype=np.complex128)
        out[:, 0, 1], out[:, 1, 0] = d1[i], d2[i]
        if form == "four":
            out[:, 1, 1] = 2j * k
        else:
            phase = np.exp(2j * k * s * i / 2)
            out[:, 0, 1] *= phase
            out[:, 1, 0] /= phase
        return out

    want = ref.rk4(lambda _: (gen_at(0), gen_at(1), gen_at(2)),
                   np.broadcast_to(np.eye(2, dtype=np.complex128), (4, 2, 2)), 1, s)[-1]
    assert _rel(got, want) < 1e-15


def test_rapid_decay_passes_skip_the_frame_basis(sech10, monkeypatch):
    # _frame_steps serves finite density only
    calls = []
    frame_steps = zsdirect._frame_steps

    def spy(*args):
        calls.append(len(args[4]))
        return frame_steps(*args)

    monkeypatch.setattr(zsdirect, "_frame_steps", spy)
    scattering_batch(sech10, C, _ks(3))
    jost_plus(sech10, C, 0.4)
    assert calls == []
    p = _fd_bump()
    scattering_batch(p, Coupling(1.0), [-2.0, 2.0])
    assert calls == [2]


def _fd_bump():
    x = grid(20.0, 0.05)
    return make_profile(1.0 + 0.3 * (1.0 + 0.5j) * np.exp(-x ** 2), 20.0,
                        FiniteDensity(rho=1.0, theta=0.0), boundary_tol=1e-6)


def _fd_twisted():
    # q -> 1 at the left end and e^{0.7i} at the right end
    x = grid(20.0, 0.05)
    q = np.exp(0.35j * (1.0 + np.tanh(x))) * (1.0 + 0.3 * (1.0 + 0.5j) * np.exp(-x ** 2))
    return make_profile(q, 20.0, FiniteDensity(rho=1.0, theta=0.7), boundary_tol=1e-6)


@pytest.mark.parametrize("c, profile, cfg", [
    pytest.param(Coupling(1.3j), None, IntegratorConfig(step=0.025), id="c0"),
    pytest.param(Coupling(0.6), None, IntegratorConfig(step=0.025), id="c1"),
    pytest.param(Coupling(0.0), None, IntegratorConfig(step=0.025), id="c2"),
    pytest.param(Coupling(1.0), lambda: soliton_profile_fd_defocusing(
        SolitonParamsFD(rho=1.0, theta=1.94), grid(15.0, 0.02), boundary_tol=1e-6),
        IntegratorConfig(), id="dark"),
    pytest.param(Coupling(1j), lambda: profile_fd_focusing(2.0, grid(15.0, 0.05)),
                 IntegratorConfig(), id="pedestal"),
    pytest.param(Coupling(0.8j), _fd_twisted, IntegratorConfig(), id="theta"),
])
def test_scattering_batch_keeps_the_involution_exactly(sech10, c, profile, cfg):
    # at real k, S = [[a*, b], [sigma b*, a]] with sigma = c*/c: -1
    # focusing, +1 defocusing or free; finite-density cases run on the
    # admissible samples of make_kgrid
    p = sech10 if profile is None else profile()
    k = _ks(161) if profile is None else make_kgrid(c, p.asymptotics, 4.0, 161).samples
    s = scattering_batch(p, c, k, cfg)
    sigma = c.involution_sign
    assert sigma == (-1.0 if c.regime == "focusing" else 1.0)
    assert np.array_equal(s[:, 1, 1], np.conj(s[:, 0, 0]))
    assert np.array_equal(s[:, 1, 0], sigma * np.conj(s[:, 0, 1]))


@pytest.mark.parametrize("c", [Coupling(1.0), Coupling(1j)])
def test_scattering_batch_finite_density_matches_loop(c):
    p = _fd_bump()
    k = np.linspace(-4.0, 4.0, 41) + 0.0125  # clear of the branch points
    if c.regime == "defocusing":
        k = k[np.abs(k) > 1.0]  # outside the forbidden gap (-1, 1)
    cfg = IntegratorConfig()
    assert _rel(scattering_batch(p, c, k, cfg), ref.transfer(p, c, k, cfg)) < RTOL


@pytest.mark.parametrize("k", [0.0, 0.5, -0.999])
def test_gap_samples_raise_branch_point(k):
    # inside the forbidden gap (-1, 1) of the defocusing finite-density
    # problem mu is imaginary and S is not scattering data
    p, c = _fd_bump(), Coupling(1.0)
    with pytest.raises(BranchPoint):
        scattering_batch(p, c, [2.0, k])
    with pytest.raises(BranchPoint):
        jost_plus(p, c, k)


def test_jost_trajectory_matches_loop(sech10):
    cfg = IntegratorConfig()
    sol = jost_plus(sech10, C, 0.4, cfg)
    y = ref.transfer(sech10, C, [0.4], cfg, collect=True)[:, 0]
    # Psi+ = diag(e^{-ikx}, e^{ikx}) Y on a rapidly decreasing background
    e = np.exp(-0.4j * sol.x)
    want = np.stack([e[:, None] * y[:, 0], y[:, 1] / e[:, None]], axis=1)
    assert _rel(sol.samples, want) < RTOL


def test_continuation_matches_loop(sech10):
    cfg = IntegratorConfig()
    k = np.array([0.3 + 2.5j, -1.0 + 0.01j, 2.0 + 1.0j, 0.1 + 0.5j, -3.0 + 1.7j])
    got = analytic_continue_a(sech10, C, k, cfg)
    want = ref.a_of_k(sech10, C, k, cfg)
    assert np.max(np.abs(got - want) / np.abs(want)) < RTOL
    assert abs(analytic_continue_a(sech10, C, k[0], cfg) - want[0]) < RTOL * abs(want[0])


@pytest.mark.parametrize("L", [25.0, 24.98])
@pytest.mark.parametrize("decimated", [False, True], ids=["full", "decimated"])
def test_fused_columns_match_loop_on_census_box(L, decimated):
    # corners and mid-edges of the census search box at its widest (k_max 4,
    # A = 1.25, nu = 3.5: top edge 1.05 nu A + 0.1), where the degree-16
    # rows see the largest |2ik|; V = 0.3 keeps the threshold zero of a at
    # nu = 3.5 off the bottom mid-edge.  L = 24.98 gives step counts that
    # are not a multiple of 4, so the last row is padded with identities
    p = soliton_profile_rd(SolitonParamsRD(A=1.25, V=0.3), grid(L, 0.02), boundary_tol=1e-8)
    cfg = IntegratorConfig(step=0.01)
    if decimated:
        p, cfg = zsdirect._decimated(p), IntegratorConfig()
    c = Coupling(3.5j)
    x0, x1, y0, y1 = -4.0, 4.0, zsdirect._AXIS_GAP, 1.05 * 3.5 * 1.25 + 0.1
    ym = 0.5 * (y0 + y1)
    k = np.array([x0 + 1j * y0, 1j * y0, x1 + 1j * y0, x1 + 1j * ym,
                  x1 + 1j * y1, 1j * y1, x0 + 1j * y1, x0 + 1j * ym])
    table = zsdirect._column_table(p, c, cfg)
    imeet = len(table.xs) // 2
    counts = (imeet - table.j_lo, table.j_hi - imeet)
    assert L == 25.0 or any(n % 4 for n in counts)
    got = analytic_continue_a(p, c, k, cfg)
    want = ref.a_of_k(p, c, k, cfg)
    assert np.max(np.abs(got - want) / np.abs(want)) < RTOL
    got = np.array([norming_constant(p, c, kv, cfg) for kv in k])
    want = ref.norming(p, c, k, cfg)
    assert np.max(np.abs(got - want) / np.abs(want)) < RTOL


def test_find_zeros_builds_two_tables(monkeypatch):
    # one table of the decimated profile for the contour, one of the full
    # profile for Newton and the norming constants
    p = soliton_profile_rd(SolitonParamsRD(A=1.0, V=0.3), grid(25.0, 0.02), boundary_tol=1e-8)
    built = []
    build = zsdirect._column_table

    def counting(prof, *args, **kwargs):
        built.append(prof.h)
        return build(prof, *args, **kwargs)

    monkeypatch.setattr(zsdirect, "_column_table", counting)
    zeros = find_zeros(p, C, (-2.0, 2.0, 0.05, 2.0), IntegratorConfig(step=0.01))
    assert len(zeros) == 1
    assert built == [pytest.approx(0.04), pytest.approx(0.02)]


def test_columns_full_matches_loop(sech10):
    cfg = IntegratorConfig(step=0.025)
    _, r, lc = _columns_full(sech10, C, 0.2 + 0.8j, cfg)
    r_ref, l_ref = ref.columns_full(sech10, C, 0.2 + 0.8j, cfg)
    assert _rel(r, r_ref) < RTOL
    assert _rel(lc, l_ref) < RTOL


@pytest.mark.parametrize("direction", [1, -1])
def test_theta_pass_matches_loop(sech10, direction):
    cfg = IntegratorConfig()
    k = np.linspace(-3.0, 3.0, 7)
    phi_ref, th_ref = ref.theta(sech10, C, Coupling(2.1j), k, cfg, direction)
    keep = np.array([0, 5, 200, 399, 400])
    _, phi, th = _theta_pass(sech10, C, Coupling(2.1j), k, cfg, direction, keep=keep)
    assert _rel(phi, phi_ref[keep]) < RTOL
    assert _rel(th, th_ref[keep]) < RTOL


# --- long grids: rounding that grows with the step count ----------------------

@pytest.mark.parametrize("c", [Coupling(0.6), Coupling(1.3j)])
def test_scattering_batch_long_sech_matches_loop(c):
    p = soliton_profile_rd(SolitonParamsRD(A=1.0, V=0.3), grid(30.0, 0.02),
                           boundary_tol=1e-3)
    cfg = IntegratorConfig(step=0.01)  # 6000 steps
    k = np.linspace(-5.0, 5.0, 41)
    assert _rel(scattering_batch(p, c, k, cfg), ref.transfer(p, c, k, cfg)) < RTOL


@pytest.mark.parametrize("step", [None, 0.0025])
def test_scattering_batch_long_dark_soliton_matches_loop(step):
    # 8000 native steps or 16000 refined ones, at k on both sides of the
    # gap (-0.9, 0.9), down to 0.1 from its branch points
    p = soliton_profile_fd_defocusing(SolitonParamsFD(rho=0.9, theta=1.94),
                                      np.linspace(-20.0, 20.0, 8001), boundary_tol=1e-6)
    cfg = IntegratorConfig(step=step)
    k = np.array([-4.0, -2.0, -1.2, -1.0, 1.0, 1.2, 2.0, 4.0])
    assert _rel(scattering_batch(p, Coupling(1.0), k, cfg),
                ref.transfer(p, Coupling(1.0), k, cfg)) < RTOL


@pytest.mark.parametrize("direction", [1, -1])
def test_theta_pass_long_grid_matches_loop(direction):
    # the 5000-step grid of a verify job (L = 25, h = 0.02, step 0.01), with
    # the nodes verify_factorization keeps
    p = soliton_profile_rd(SolitonParamsRD(A=1.0, V=0.3), grid(25.0, 0.02),
                           boundary_tol=1e-8)
    cfg = IntegratorConfig(step=0.01)
    k = np.linspace(-5.0, 5.0, 5)
    xs = zsdirect._working_samples(p, cfg)[0]
    keep = [int(np.argmin(np.abs(xs - xv))) for xv in np.linspace(-12.5, 12.5, 9)]
    keep = np.array(keep + [0, len(xs) - 1])
    phi_ref, th_ref = ref.theta(p, C, Coupling(2.1j), k, cfg, direction)
    _, phi, th = _theta_pass(p, C, Coupling(2.1j), k, cfg, direction, keep=keep)
    assert _rel(phi, phi_ref[keep]) < RTOL
    assert _rel(th, th_ref[keep]) < RTOL


@pytest.mark.parametrize("direction", [1, -1])
def test_theta_pass_large_k_matches_loop(direction):
    # |k| up to 12 on the 5000-step verify grid: |ks| = 0.12, so the
    # powers u^-4 .. u^6 of the table span 1.2 rad
    p = soliton_profile_rd(SolitonParamsRD(A=1.0, V=0.3), grid(25.0, 0.02),
                           boundary_tol=1e-8)
    cfg = IntegratorConfig(step=0.01)
    k = np.array([-12.0, -7.5, 0.3, 12.0])
    xs = zsdirect._working_samples(p, cfg)[0]
    keep = [int(np.argmin(np.abs(xs - xv))) for xv in np.linspace(-12.5, 12.5, 9)]
    keep = np.array(keep + [0, len(xs) - 1])
    phi_ref, th_ref = ref.theta(p, C, Coupling(2.1j), k, cfg, direction)
    _, phi, th = _theta_pass(p, C, Coupling(2.1j), k, cfg, direction, keep=keep)
    assert _rel(phi, phi_ref[keep]) < RTOL
    assert _rel(th, th_ref[keep]) < RTOL


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("c_old, c_new", [(0.0, 0.8j), (0.8j, 0.0)],
                         ids=["free-to-focusing", "focusing-to-free"])
def test_theta_pass_across_zero_coupling_matches_loop(sech10, c_old, c_new, direction):
    cfg = IntegratorConfig()
    k = np.linspace(-3.0, 3.0, 7)
    phi_ref, th_ref = ref.theta(sech10, Coupling(c_old), Coupling(c_new), k, cfg, direction)
    _, phi, th = _theta_pass(sech10, Coupling(c_old), Coupling(c_new), k, cfg, direction)
    assert _rel(phi, phi_ref) < RTOL
    assert _rel(th, th_ref) < RTOL


@pytest.mark.parametrize("direction", [1, -1])
def test_theta_pass_one_k_every_node_matches_loop(sech10, direction):
    # the higher_level_theta path: keep=None at n_k = 1
    cfg = IntegratorConfig(step=0.025)
    k = np.array([0.7])
    phi_ref, th_ref = ref.theta(sech10, C, Coupling(2.1j), k, cfg, direction)
    xs, phi, th = _theta_pass(sech10, C, Coupling(2.1j), k, cfg, direction)
    assert phi.shape == th.shape == (len(xs), 1, 2, 2)
    assert _rel(phi, phi_ref) < RTOL
    assert _rel(th, th_ref) < RTOL


@pytest.mark.parametrize("direction", [1, -1])
def test_theta_pass_kept_nodes_on_chunk_and_block_edges(sech10, monkeypatch, direction):
    # 60 elements at 4 x 5 k points give chunks of 3 steps, and blocks of
    # the step table hold 3 chunks; kept nodes sit on chunk edges (3, 6),
    # on block edges (9, 18, 396), one step either side of one (8, 10) and
    # at both ends
    monkeypatch.setattr(zsdirect, "_CHUNK", 60)
    monkeypatch.setattr(quench, "_THETA_BLOCK", 10)
    cfg = IntegratorConfig()
    k = np.linspace(-3.0, 3.0, 5)
    n = len(zsdirect._working_samples(sech10, cfg)[0])
    steps = np.array([0, 3, 6, 8, 9, 10, 18, 396, n - 1])
    keep = steps if direction > 0 else n - 1 - steps
    phi_ref, th_ref = ref.theta(sech10, C, Coupling(2.1j), k, cfg, direction)
    _, phi, th = _theta_pass(sech10, C, Coupling(2.1j), k, cfg, direction, keep=keep)
    assert _rel(phi, phi_ref[keep]) < RTOL
    assert _rel(th, th_ref[keep]) < RTOL


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_theta_pass_working_set():
    # on the grid of a verify job with 201 k, one Theta pass may peak at
    # most 1.5x as high as scattering_batch on the same profile, k and
    # cfg.  Chunks of 2^15 elements, with ~65 chunk-sized arrays alive in
    # the build, peaked at 32.5 MiB against 7.6 MiB (4.3x)
    p = soliton_profile_rd(SolitonParamsRD(A=1.0, V=0.3), grid(25.0, 0.02),
                           boundary_tol=1e-8)
    cfg = IntegratorConfig(step=0.01)
    k = np.linspace(-5.0, 5.0, 201)
    xs = zsdirect._working_samples(p, cfg)[0]
    keep = [int(np.argmin(np.abs(xs - xv))) for xv in np.linspace(-12.5, 12.5, 9)]
    keep = np.array(keep + [0, len(xs) - 1])
    base = _traced_peak(lambda: scattering_batch(p, C, k, cfg))
    theta = _traced_peak(lambda: _theta_pass(p, C, Coupling(2.1j), k, cfg, 1, keep=keep))
    assert theta <= 1.5 * base


def test_jost_trajectory_finite_density_matches_loop():
    p = _fd_bump()
    c, kv, cfg = Coupling(1.0), 1.7, IntegratorConfig()
    sol = jost_plus(p, c, kv, cfg)
    y = ref.transfer(p, c, [kv], cfg, collect=True)[:, 0]
    # Psi+ = P_- diag(e^{-i mu x}, e^{i mu x}) Y
    mu, pm, _, _ = zsdirect._frame_arrays(c, p.asymptotics, np.array([kv + 0j]))
    e = np.exp(-1j * mu[0] * sol.x)
    want = pm[0] @ np.stack([e[:, None] * y[:, 0], y[:, 1] / e[:, None]], axis=1)
    assert _rel(sol.samples, want) < RTOL


# --- chunk edges --------------------------------------------------------------

def _in_algebra(m, sigma):
    """m with its second row set to (sigma m01*, m00*); as it is for None."""
    if sigma is not None:
        m[..., 1, 0] = sigma * np.conj(m[..., 0, 1])
        m[..., 1, 1] = np.conj(m[..., 0, 0])
    return m


@pytest.mark.parametrize("budget, sigma", [
    pytest.param(b, sg, id=str(b) if sg is None else f"{b}-sigma{sg:+.0f}")
    for sg in (None, -1.0, 1.0) for b in (4, 64, zsdirect._CHUNK)])
@pytest.mark.parametrize("nk", [1, 3, 5])
@pytest.mark.parametrize("nsteps", [1, 2, 7, 33])
def test_propagate_chunks_match_sequential_product(monkeypatch, budget, nk, nsteps, sigma):
    monkeypatch.setattr(zsdirect, "_CHUNK", budget)
    rng = np.random.default_rng(nsteps * 100 + nk)
    mats = _in_algebra(np.eye(2) + 0.3 * (rng.standard_normal((nsteps, nk, 2, 2))
                                          + 1j * rng.standard_normal((nsteps, nk, 2, 2))), sigma)
    y0 = _in_algebra(np.eye(2) + 0.1 * rng.standard_normal((nk, 2, 2)), sigma)
    states = [y0]
    for m in mats:
        states.append(m @ states[-1])
    states = np.array(states)
    entries = ((0, 0), (0, 1), (1, 0), (1, 1))[:4 if sigma is None else 2]

    def build(i0, i1):
        return tuple(mats[i0:i1, :, r, c] for r, c in entries)

    start = tuple(y0[:, r, c] for r, c in entries)
    record = np.array([nsteps, 0, nsteps // 2])
    end, out = _propagate(build, nsteps, nk, start, record=record, sigma=sigma)
    assert _rel(zsdirect._as_array(end, sigma), states[-1]) < RTOL
    assert _rel(out, states[record]) < RTOL
    end, out = _propagate(build, nsteps, nk, start, sigma=sigma)
    assert out is None
    assert _rel(zsdirect._as_array(end, sigma), states[-1]) < RTOL


@pytest.mark.parametrize("budget, nk", [(64, 161), (50, 7)], ids=["one-row", "partial"])
def test_fused_table_across_chunks_matches_loop(sech10, monkeypatch, budget, nk):
    """A budget below nk gives one fused row (4 steps) per chunk; 50 with
    seven k points gives seven rows per chunk and a partial last chunk."""
    monkeypatch.setattr(zsdirect, "_CHUNK", budget)
    lo, hi = zsdirect._support_bounds(sech10)
    rows = -(-(hi - lo) // 4)
    per = zsdirect._chunk_steps(nk)
    assert per == 1 or rows % per
    cfg = IntegratorConfig()
    k = _ks(nk)
    assert _rel(scattering_batch(sech10, C, k, cfg), ref.transfer(sech10, C, k, cfg)) < RTOL


def test_integrations_across_chunks_match_loop(sech10, monkeypatch):
    """A budget below nk gives one step per chunk; 50 with seven k points
    gives seven steps per chunk and an odd remainder."""
    cfg = IntegratorConfig()
    k = _ks(161)
    monkeypatch.setattr(zsdirect, "_CHUNK", 64)
    assert _rel(scattering_batch(sech10, C, k, cfg), ref.transfer(sech10, C, k, cfg)) < RTOL
    kc = np.linspace(-2.0, 2.0, 97) + 0.5j
    want = ref.a_of_k(sech10, C, kc, cfg)
    got = analytic_continue_a(sech10, C, kc, cfg)
    assert np.max(np.abs(got - want) / np.abs(want)) < RTOL
    monkeypatch.setattr(zsdirect, "_CHUNK", 50)
    _, r, lc = _columns_full(sech10, C, 0.2 + 0.8j, cfg)
    r_ref, l_ref = ref.columns_full(sech10, C, 0.2 + 0.8j, cfg)
    assert _rel(r, r_ref) < RTOL and _rel(lc, l_ref) < RTOL
    k7 = np.linspace(-3.0, 3.0, 7)
    phi_ref, th_ref = ref.theta(sech10, C, Coupling(2.1j), k7, cfg, -1)
    _, phi, th = _theta_pass(sech10, C, Coupling(2.1j), k7, cfg, -1)
    assert _rel(phi, phi_ref) < RTOL
    assert _rel(th, th_ref) < RTOL


# --- divergence guard ---------------------------------------------------------

@pytest.fixture(scope="module")
def bump():
    x = grid(10.0, 0.05)
    vals = np.where(np.abs(x) < 9.0, 1e200 * np.exp(-x ** 2), 0.0)
    return make_profile(vals, 10.0, Schwartz(), boundary_tol=1e-8)


@pytest.mark.parametrize("call", [
    lambda p: scattering_batch(p, Coupling(1j), [0.0, 1.0]),
    lambda p: analytic_continue_a(p, Coupling(1j), 0.3 + 0.5j),
    lambda p: find_zeros(p, Coupling(1j), (-1.0, 1.0, 1e-6, 2.0)),
    lambda p: norming_constant(p, Coupling(1j), 0.5j),
    lambda p: higher_level_theta(p, Coupling(1j), Coupling(2j), 0.5),
    lambda p: apply_bt(p, Coupling(1j), DarbouxStep(k0=0.5j)),
], ids=["scattering_batch", "analytic_continue_a", "find_zeros", "norming_constant",
        "higher_level_theta", "apply_bt"])
def test_overflow_raises_integrator_diverged(bump, call):
    with pytest.raises(IntegratorDiverged):
        call(bump)
