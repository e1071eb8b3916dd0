"""Shared helpers for the test suite: parameter draws and a call counter."""

import sys

import numpy as np

from polydot import potentials


def draw_cusp2d(rng):
    b = rng.uniform(0.2, 1.5)
    a = b + rng.uniform(0.2, 1.5)
    return potentials.spec_from_raw("cusp2d", dict(alpha_sq=a, beta_sq=b))


def draw_cusp3d(rng):
    g = rng.uniform(0.4, 1.2)
    b = g + rng.uniform(0.3, 1.0)
    a = b + rng.uniform(0.3, 1.0)
    return potentials.spec_from_raw(
        "cusp3d", dict(alpha_sq=a, beta_sq=b, gamma_sq=g)
    )


def draw_butterfly1d(rng):
    return potentials.make_spec(
        "butterfly1d", alpha=rng.uniform(0.6, 1.8), beta=rng.uniform(0.5, 1.6)
    )


def draw_butterfly2d(rng, u_range=(-3.0, None)):
    shape = {}
    for ax in ("x", "y"):
        al = rng.uniform(0.5, 2.0)
        be = rng.uniform(0.3, 1.5)
        shape[f"alpha_{ax}_sq"] = al
        shape[f"beta_{ax}_sq"] = be
        shape[f"gamma_{ax}_sq"] = al + 2.0 * be
    raw = potentials.shape_to_raw("butterfly2d", shape)
    lo, hi = u_range
    if hi is None:
        hi = 2.0 * min(raw["a"], raw["b"]) - 0.1
    raw["u"] = rng.uniform(lo, hi)
    return potentials.spec_from_raw("butterfly2d", raw)


def draw_butterfly2d_with_roots(rng, max_attempts=20):
    """A draw whose in-plane quadratic has admissible real roots (found by
    sweeping the cross coupling below its degeneracy)."""
    from polydot import stationary

    for _ in range(max_attempts):
        spec = draw_butterfly2d(rng)
        raw = dict(spec.raw)
        hi = 2.0 * min(raw["a"], raw["b"]) - 0.05
        live = []
        for u in np.linspace(-3.0, hi, 32):
            raw["u"] = float(u)
            candidate = potentials.spec_from_raw("butterfly2d", raw)
            if stationary.off_axis_roots_2d(candidate):
                live.append(candidate)
        if live:
            return live[int(rng.integers(len(live)))]
    raise AssertionError("no butterfly2d draw with off-axis roots found")


def draw_butterfly3d(rng, cross=0.8):
    shape = {}
    for ax in ("x", "y", "z"):
        al = rng.uniform(0.4, 1.8)
        be = rng.uniform(0.3, 1.4)
        shape[f"alpha_{ax}_sq"] = al
        shape[f"beta_{ax}_sq"] = be
        shape[f"gamma_{ax}_sq"] = al + 2.0 * be
    raw = potentials.shape_to_raw("butterfly3d", shape)
    for key in ("u", "v", "w"):
        raw[key] = rng.uniform(-cross, cross)
    return potentials.spec_from_raw("butterfly3d", raw)


def draw_butterfly3d_ordered(rng):
    """Axis parameters respecting gamma_x^2 > gamma_y^2 > gamma_z^2 and
    alpha_x^2-beta_x^2 < alpha_y^2-beta_y^2 < alpha_z^2-beta_z^2 < 0,
    with small cross couplings."""
    gammas = np.sort(rng.uniform(3.0, 6.0, size=3))[::-1]
    diffs = np.sort(rng.uniform(-1.0, -0.1, size=3))
    shape = {}
    for ax, g2, d in zip(("x", "y", "z"), gammas, diffs):
        al = (g2 + 2.0 * d) / 3.0
        be = (g2 - d) / 3.0
        shape[f"alpha_{ax}_sq"] = al
        shape[f"beta_{ax}_sq"] = be
        shape[f"gamma_{ax}_sq"] = g2
    raw = potentials.shape_to_raw("butterfly3d", shape)
    for key in ("u", "v", "w"):
        raw[key] = rng.uniform(-0.3, 0.3)
    return potentials.spec_from_raw("butterfly3d", raw), shape


def draw_butterfly3d_strong(rng):
    p, q, s = rng.uniform(1.0, 3.0, size=3)
    u = float(np.sqrt(3.0 * (p + q + s)) * rng.uniform(1.05, 1.3))
    return potentials.spec_from_raw(
        "butterfly3d",
        dict(a=rng.uniform(0.0, 0.3), b=rng.uniform(0.0, 0.3),
             c=rng.uniform(0.0, 0.3), u=u, v=u, w=u, p=p, q=q, s=s),
    )


DRAWERS = {
    "cusp2d": draw_cusp2d,
    "cusp3d": draw_cusp3d,
    "butterfly1d": draw_butterfly1d,
    "butterfly2d": draw_butterfly2d,
    "butterfly3d": draw_butterfly3d,
}


def random_points(rng, dim, n, radius=2.0):
    return rng.uniform(-radius, radius, size=(n, dim))


def count_calls(monkeypatch, fn):
    """Replace fn by a counting wrapper in every polydot module that binds
    it (callers that imported the name see the wrapper too); returns the
    list that grows by one entry per call."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "polydot" or name.startswith("polydot."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls
