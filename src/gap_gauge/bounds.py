"""Structure parameters and worst-case bounds on the gap measurement error.

The error |G - G_hat| of measuring the gap through the proxy admits several
upper bounds, each valid under a different structural condition on the model:

* bound A uses only the worst proxy error rate across slices,
* bound B1 adds within-slice precision/recall closeness plus closeness of
  the off-diagonal outcome rates b and c (closeness of diagonals),
* bound B2 uses across-slice closeness of the error rates plus approximate
  translation of the outcome rates between slices (model closeness),
* the combined bound mixes all three families and is reported in two
  arithmetic variants that differ in one coefficient (see
  :func:`bound_terms`).

:func:`structure_params` extracts every one of these condition parameters at
its tightest value for a given model, so each bound is evaluated at the
smallest budget the model actually satisfies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, ZeroMassCondition
from .model import (
    FullJoint, NonNegative, ReducedModel, Signed, Unit, _check_fields, _rate,
    _require_instance, _require_real, slice_rates,
)

__all__ = [
    "StructureParams",
    "BoundReport",
    "IndependenceDiagnostics",
    "gamma_terms",
    "closeness_terms",
    "bound_terms",
    "structure_params",
    "classifier_structure_params",
    "bound_report",
    "bound_report_from_params",
    "independence_diagnostics",
]


@dataclass(frozen=True, slots=True)
class StructureParams:
    """Tight structural-condition parameters of a reduced model.

    gamma_A   largest proxy error rate, max(p0, r0, p1, r1)
    gamma_B1  largest within-slice |p_l - r_l|
    gamma_B2  largest across-slice rate difference, max(|p1-p0|, |r1-r0|)
    eps_B1    largest within-slice |b_l - c_l| (closeness of diagonals)
    eps_B2    smallest uniform translation residual of (a, b, c) between
              slices (model closeness), with g_star the minimizing shift
    """

    gamma_A: Unit
    gamma_B1: Unit
    gamma_B2: Unit
    eps_B1: Unit
    eps_B2: Unit
    g_star: Signed

    __post_init__ = _check_fields


def _first_max(*values):
    """``max(*values)``, elementwise if the first value is an array.

    Of tied values the first wins, 0.0 and -0.0 included, as in ``max``;
    ``np.maximum`` would return the second.
    """
    if not isinstance(values[0], np.ndarray):
        return max(values)
    return functools.reduce(lambda m, x: np.where(x > m, x, m), values)


def _first_min(*values):
    """``min(*values)``, elementwise if the first value is an array; ties as in ``min``."""
    if not isinstance(values[0], np.ndarray):
        return min(values)
    return functools.reduce(lambda m, x: np.where(x < m, x, m), values)


def gamma_terms(p0, r0, p1, r1) -> tuple:
    """gamma_A, gamma_B1 and gamma_B2 of two slices' error rates (floats or arrays)."""
    return (
        _first_max(p0, r0, p1, r1),
        _first_max(abs(p0 - r0), abs(p1 - r1)),
        _first_max(abs(p1 - p0), abs(r1 - r0)),
    )


def closeness_terms(a0, b0, c0, a1, b1, c1) -> tuple:
    """eps_B1, eps_B2 and g_star of two slices' outcome rates (floats or arrays).

    The translation parameters solve the minimax problem

        g_star = argmin_g max_{x in {a,b,c}} |(x_1 - x_0) - g|

    whose closed form is the midrange of the three differences; eps_B2 is
    half their range. No smaller eps_B2 admits any shift, and no other shift
    achieves eps_B2.
    """
    deltas = (a1 - a0, b1 - b0, c1 - c0)
    hi, lo = _first_max(*deltas), _first_min(*deltas)
    return _first_max(abs(b0 - c0), abs(b1 - c1)), (hi - lo) / 2.0, (hi + lo) / 2.0


def structure_params(model: ReducedModel) -> StructureParams:
    """Every structure parameter at its tightest value (see :func:`closeness_terms`)."""
    _require_instance(model, "model", ReducedModel)
    s0, s1 = model.slices()
    return StructureParams(
        *gamma_terms(s0.p, s0.r, s1.p, s1.r),
        *closeness_terms(s0.a, s0.b, s0.c, s1.a, s1.b, s1.c),
    )


def classifier_structure_params(
    p0: float,
    r0: float,
    p1: float,
    r1: float,
    eps_b1: float = 1.0,
    eps_b2: float = 1.0,
) -> StructureParams:
    """Structure parameters for a known classifier and assumed closeness.

    Useful before any outcome data exists: the error rates pin down the gamma
    parameters while the closeness budgets are supplied (defaulting to the
    vacuous 1.0). ``g_star``, which needs outcome rates, is 0.
    """
    named = {"p0": p0, "r0": r0, "p1": p1, "r1": r1, "eps_b1": eps_b1, "eps_b2": eps_b2}
    p0, r0, p1, r1, eps_b1, eps_b2 = (_require_real(x, n, 0.0, 1.0) for n, x in named.items())
    return StructureParams(*gamma_terms(p0, r0, p1, r1), eps_B1=eps_b1, eps_B2=eps_b2, g_star=0.0)


def bound_terms(gamma_A, gamma_B1, gamma_B2, eps_B1, eps_B2) -> tuple:
    """Bounds A, B1, B2, combined stated and proof, and best (floats or arrays).

    A = 2 gamma_A, B1 = 2 (gamma_B1 + eps_B1) and B2 = 2 gamma_B2 + 3 eps_B2
    are valid for every model. The two combined variants share
    2 min(gamma_A, gamma_B1, gamma_B2) + eps_B2 (2 gamma_A + gamma_B1) and
    differ in the final term: the stated variant adds eps_B1 * gamma_B1 while
    the derivation it summarizes supports eps_B1 * gamma_B2 (the
    diagonal-closeness substitution is weighted by the across-slice precision
    difference). Only the proof variant is sound for every model; the stated
    variant can be violated when gamma_B1 < gamma_B2. Both are reported so
    either convention can be compared, and ``best`` is the smallest sound
    bound, min(A, B1, B2, proof).
    """
    bound_a = 2.0 * gamma_A
    bound_b1 = 2.0 * (gamma_B1 + eps_B1)
    bound_b2 = 2.0 * gamma_B2 + 3.0 * eps_B2
    shared = 2.0 * _first_min(gamma_A, gamma_B1, gamma_B2) + eps_B2 * (2.0 * gamma_A + gamma_B1)
    stated, proof = shared + eps_B1 * gamma_B1, shared + eps_B1 * gamma_B2
    best = _first_min(bound_a, bound_b1, bound_b2, proof)
    return bound_a, bound_b1, bound_b2, stated, proof, best


@dataclass(frozen=True, slots=True)
class BoundReport:
    """All bound values for one parameter set, plus the smallest sound one."""

    bound_A: NonNegative
    bound_B1: NonNegative
    bound_B2: NonNegative
    bound_combined_stated: NonNegative
    bound_combined_proof: NonNegative
    best: NonNegative

    def __post_init__(self) -> None:
        _check_fields(self)
        sound = min(self.bound_A, self.bound_B1, self.bound_B2, self.bound_combined_proof)
        if abs(self.best - sound) > 1e-12:
            raise ValidationError("best must be the minimum of the four sound bounds")


def bound_report_from_params(params: StructureParams) -> BoundReport:
    """Evaluate every bound at the given parameters."""
    _require_instance(params, "params", StructureParams)
    return BoundReport(*bound_terms(
        params.gamma_A, params.gamma_B1, params.gamma_B2, params.eps_B1, params.eps_B2
    ))


def bound_report(model: ReducedModel) -> BoundReport:
    """Evaluate every bound at the model's tight structure parameters."""
    return bound_report_from_params(structure_params(model))


@dataclass(frozen=True, slots=True)
class IndependenceDiagnostics:
    """Deviation of a joint from three conditional-independence cases.

    case1  y independent of (v, vhat) given l        -> gaps coincide
    case2  y independent of vhat given (v, l)        -> error <= 2 max(p0, p1)
    case3  y independent of v given (vhat, l)        -> error <= 2 max(r0, r1)

    Each deviation is the largest absolute difference between the fully
    conditioned outcome rate and the corresponding coarser rate; a case holds
    when its deviation is within ``tol``. ``bound_case2``/``bound_case3``
    carry the implied error bound when their case holds (None otherwise).
    ``gap_error`` is |G - G_hat| computed directly from the joint; when case 1
    holds it is guaranteed within ``4 * tol``.
    """

    tol: Unit
    case1_deviation: float
    case2_deviation: float
    case3_deviation: float
    case1_holds: bool
    case2_holds: bool
    case3_holds: bool
    bound_case2: float | None
    bound_case3: float | None
    gap_error: float

    __post_init__ = _check_fields


def independence_diagnostics(
    joint: FullJoint, tol: float = 1e-9
) -> IndependenceDiagnostics:
    """Measure how far a joint is from each independence case.

    Requires positive mass on every (v, vhat, l) conditioning event and
    raises :class:`ZeroMassCondition` naming the first empty one otherwise,
    in (v, vhat, l) order. ``tol`` defaults to a float-rounding allowance
    appropriate for exactly constructed joints; fitted joints warrant a
    larger value.
    """
    _require_instance(joint, "joint", FullJoint)
    tol = _require_real(tol, "tol", 0.0, 1.0)
    halves = joint.cells.reshape(2, 8)
    cell = np.arange(8).reshape(2, 2, 2)  # a slice's cell 4v + 2vhat + y at [v, vhat, y]
    # Pr[y=1 | v, vhat, l] at [l, v, vhat]; each coarser event below contains
    # one of these events, so it has mass once they all do
    fine, has_mass = _rate(halves, cell[..., 1:], cell)
    empty = np.argwhere(~has_mass.transpose(1, 2, 0))
    if empty.size:
        v, vhat, l = empty[0]
        raise ZeroMassCondition(f"l={l}, v={v}, vhat={vhat}")
    # Pr[y=1 | l] at [l], Pr[y=1 | v, l] at [l, v] and Pr[y=1 | vhat, l] at [l, vhat]
    by_l, _ = _rate(halves, cell[..., 1].reshape(4), cell.reshape(8))
    by_v, _ = _rate(halves, cell[..., 1], cell.reshape(2, 4))
    by_vhat, _ = _rate(halves, cell[..., 1].T, cell.transpose(1, 0, 2).reshape(2, 4))

    dev1 = float(np.abs(fine - by_l[:, None, None]).max())
    dev2 = float(np.abs(fine - by_v[:, :, None]).max())
    dev3 = float(np.abs(fine - by_vhat[:, None, :]).max())
    holds1, holds2, holds3 = dev1 <= tol, dev2 <= tol, dev3 <= tol

    s0, s1, _ = slice_rates(joint.cells)
    bound2 = 2.0 * float(max(s0.p, s1.p)) if holds2 else None
    bound3 = 2.0 * float(max(s0.r, s1.r)) if holds3 else None

    # |G - G_hat|, from the rates given v = 1 and given vhat = 1
    gap_error = float(abs((by_v[1, 1] - by_v[0, 1]) - (by_vhat[1, 1] - by_vhat[0, 1])))
    if holds1 and gap_error > 4.0 * tol + 1e-12:
        raise ValidationError(
            f"internal inconsistency: case 1 holds at tol {tol!r} but the gaps "
            f"differ by {gap_error!r}"
        )
    return IndependenceDiagnostics(
        tol=tol,
        case1_deviation=dev1,
        case2_deviation=dev2,
        case3_deviation=dev3,
        case1_holds=holds1,
        case2_holds=holds2,
        case3_holds=holds3,
        bound_case2=bound2,
        bound_case3=bound3,
        gap_error=gap_error,
    )
