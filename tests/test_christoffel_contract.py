"""The four Christoffel functions refuse a non-finite, complex or wrongly
shaped operand by name, whatever validate is: the RK oracle calls them
with validate=False, which skips only the tangency, algebra and
horizontality checks."""
import numpy as np
import pytest

from manitrans.errors import DimensionError, ValidationError
from manitrans.flag_grassmann import (FlagSignature, flag_christoffel,
                                      flag_horizontal_project)
from manitrans.gl_so import SOGeometry
from manitrans.group_core import GroupGeometry, christoffel
from manitrans.quotient import horizontal_christoffel, stiefel_quotient
from manitrans.stiefel import StiefelMetricParams, stiefel_christoffel

from helpers import (random_so, random_so_tangent, random_stiefel,
                     random_stiefel_tangent)

PARAMS = StiefelMetricParams(0.8)
SIG = FlagSignature((2, 1), 7)
SO = SOGeometry(6, 2, 0.8)
GROUP = GroupGeometry(split=SO.split, params=SO.params)
QUOTIENT = stiefel_quotient(6, 2, 0.8)


def stiefel_case(rng):
    y = random_stiefel(rng, 7, 3)
    return (lambda validate, **a: stiefel_christoffel(params=PARAMS, **a),
            dict(y=y, xi=random_stiefel_tangent(rng, y),
                 eta=random_stiefel_tangent(rng, y)))


def flag_case(rng):
    y = random_stiefel(rng, 7, 3)
    xi, eta = (flag_horizontal_project(SIG, y, rng.standard_normal((7, 3)))
               for _ in range(2))
    return (lambda validate, **a: flag_christoffel(SIG, params=PARAMS,
                                                   validate=validate, **a),
            dict(y=y, xi=xi, eta=eta))


def group_case(rng):
    x = random_so(rng, 6)
    return (lambda validate, **a: christoffel(GROUP, validate=validate, **a),
            dict(x=x, xi=random_so_tangent(rng, x),
                 eta=random_so_tangent(rng, x)))


def quotient_case(rng):
    x = random_so(rng, 6)
    xi, eta = (x @ QUOTIENT.proj_m(random_so_tangent(rng, np.eye(6)))
               for _ in range(2))
    return (lambda validate, **a: horizontal_christoffel(
                QUOTIENT, validate=validate, **a),
            dict(x=x, xi=xi, eta=eta))


CASES = {"stiefel": stiefel_case, "flag": flag_case, "group": group_case,
         "quotient": quotient_case}
BAD = {"nan": np.nan, "inf": np.inf, "complex": 1j, "shape": None}
# Stiefel's y is the reference shape: a smaller one is refused as xi's
TABLE = [(case, arg, bad) for case in CASES for arg in ("point", "xi", "eta")
         for bad in BAD if (case, arg, bad) != ("stiefel", "point", "shape")]


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("case, arg, bad", TABLE)
def test_bad_operand_is_refused_by_name(rng, case, arg, bad, validate):
    fn, args = CASES[case](rng)
    name = next(iter(args)) if arg == "point" else arg
    m = args[name]
    if bad == "shape":
        args[name], error, refusal = m[:-1, :-1], DimensionError, "has shape"
    else:
        args[name] = m.astype(type(BAD[bad]))
        args[name][0, -1] = BAD[bad]
        error = ValidationError
        refusal = "must be real" if bad == "complex" else "has non-finite"
    with pytest.raises(error, match=f"^{name} {refusal}"):
        fn(validate, **args)

