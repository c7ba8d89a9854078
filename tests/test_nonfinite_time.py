"""Every geodesic and transport entry point rejects a t that is not a
real finite scalar up front, naming t."""
import numpy as np
import pytest

from manitrans import flag_grassmann as fg, gl_so, group_core, quotient, stiefel
from manitrans.errors import ValidationError

from helpers import (random_glp, random_so, random_so_tangent, random_stiefel,
                     random_stiefel_tangent)


def entry_points(rng):
    """Each entry point as a function of t, its other arguments valid."""
    y = random_stiefel(rng, 7, 3)
    xi, eta = random_stiefel_tangent(rng, y), random_stiefel_tangent(rng, y)
    params = stiefel.StiefelMetricParams(0.8)
    plan = stiefel.make_transport_plan(y, xi, params)
    sig = fg.FlagSignature(d_list=(1, 2), n=7)
    fxi, feta = (fg.flag_horizontal_project(sig, y, rng.standard_normal(y.shape))
                 for _ in range(2))
    gxi, geta = (v - y @ (y.T @ v) for v in (xi, eta))
    so = gl_so.SOGeometry(n=7, d=2, alpha=0.8)
    x = random_so(rng, 7)
    sxi, seta = random_so_tangent(rng, x), random_so_tangent(rng, x)
    geom = group_core.GroupGeometry(split=so.split, params=so.params)
    gl = gl_so.GLGeometry(n=3, beta=0.7)
    g = random_glp(rng, 3)
    lxi, leta = g @ rng.standard_normal((3, 3)), g @ rng.standard_normal((3, 3))
    q = quotient.stiefel_quotient(7, 2, 0.8)
    ode = quotient.flag_quotient(7, (2, 2), 0.8)  # the ODE path
    qxi, qeta, oxi, oeta = (x @ qq.proj_m(x.T @ v)
                            for qq in (q, ode) for v in (sxi, seta))
    return {
        "stiefel_transport":
            lambda t: stiefel.stiefel_transport(y, xi, eta, params, t),
        "transport_with_plan":
            lambda t: stiefel.transport_with_plan(plan, y, eta, t),
        "stiefel_geodesic": lambda t: stiefel.stiefel_geodesic(y, xi, params, t),
        "stiefel_geodesic_velocity":
            lambda t: stiefel.stiefel_geodesic_velocity(y, xi, params, t),
        "flag_transport_canonical":
            lambda t: fg.flag_transport_canonical(sig, y, fxi, feta, t),
        "flag_geodesic": lambda t: fg.flag_geodesic(sig, y, fxi, t),
        "grassmann_transport": lambda t: fg.grassmann_transport(y, gxi, geta, t),
        "group_geodesic": lambda t: group_core.geodesic(geom, x, sxi, t),
        "group_geodesic_velocity":
            lambda t: group_core.geodesic_velocity(geom, x, sxi, t),
        "group_transport": lambda t: group_core.transport(geom, x, sxi, seta, t),
        "gl_geodesic": lambda t: gl_so.gl_geodesic(gl, g, lxi, t),
        "gl_transport": lambda t: gl_so.gl_transport(gl, g, lxi, leta, t),
        "so_geodesic": lambda t: gl_so.so_geodesic(so, x, sxi, t),
        "so_geodesic_velocity": lambda t: gl_so.so_geodesic_velocity(so, x, sxi, t),
        "so_transport": lambda t: gl_so.so_transport(so, x, sxi, seta, t),
        "quotient_transport":
            lambda t: quotient.quotient_transport(q, x, qxi, qeta, t),
        "quotient_transport_ode":
            lambda t: quotient.quotient_transport(ode, x, oxi, oeta, t),
    }


NAMES = list(entry_points(np.random.default_rng(0)))


@pytest.mark.parametrize("t", [
    np.nan, np.inf, -np.inf, pytest.param("1.0", id="str"),
    pytest.param(1 + 0j, id="complex"),
    pytest.param(np.array([0.5, 1.0]), id="array")])
@pytest.mark.parametrize("name", NAMES)
def test_nonfinite_t_is_named(rng, name, t):
    call = entry_points(rng)[name]
    call(0.5)  # the other arguments are valid
    with pytest.raises(ValidationError, match=r"^t (has non-finite|must be a real scalar)"):
        call(t)
