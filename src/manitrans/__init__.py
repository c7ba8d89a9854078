"""Closed-form geodesics and parallel transport on matrix Lie groups and
their Stiefel, flag and Grassmann quotients, with an exponential-action
kernel and a brute-force ODE verification oracle."""

from . import (expaction, flag_grassmann, forms, gl_so, group_core, oracle,
               quotient, stiefel)

__all__ = [
    "expaction", "flag_grassmann", "forms", "gl_so", "group_core", "oracle",
    "quotient", "stiefel",
]
