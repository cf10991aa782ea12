"""Reference computations that take another route than the library's, so tests
can compare the two bit for bit. They check no arguments.

- Conditional rates by summing a joint's cells, one query at a time; the
  library computes every rate with the array algebra (``model._rate``). A
  variable is one of ``VARIABLES``, set to 0 or 1.
- A joint rebuilt cell by cell from a reduced model and (v, vhat) marginals,
  with p and r divided out of each table by hand; the library writes each slice
  from one outcome vector and reads p and r with ``model._rate``.
- The constrained sampler drawn uniform by uniform with ``Generator.uniform``;
  the library maps seven doubles an attempt through one array expression
  (``simulation._constrained_cells``).
- Records text parsed cell by cell, with one emptiness state per optional
  column; the library maps each whole row laid out like the first to its code
  with one lookup (``empirical.parse_records``).
- The chance that one constrained attempt is accepted, integrated from the
  draw's law; the library only samples it, so tests compare its observed
  acceptance within a z bound.
"""

import csv
import io

import numpy as np

from gap_gauge import (
    EmptyInput, GapReport, InconsistentMarginals, MalformedRow, MissingCell, MixedSchema,
    RecordDataset, RejectionBudgetExhausted, ReducedModel, SliceParams, ZeroMassCondition,
    compute_gaps,
)
from gap_gauge.model import VALIDATION_TOL

#: Variable names in axis order; flat cell index is 8l + 4v + 2vhat + y.
VARIABLES = ("l", "v", "vhat", "y")


def _clip(x: float) -> float:
    """``x`` clipped to [0, 1]; -0.0 and NaN pass through."""
    return min(max(x, 0.0), 1.0)


def _mass(table, assign) -> float:
    idx = tuple(assign.get(name, slice(None)) for name in VARIABLES)
    return float(table[idx].sum())


def conditional_prob(joint, target, given) -> float:
    """Pr[target | given] under ``joint``; :class:`ZeroMassCondition` if ``given`` is empty."""
    table = joint.cells.reshape(2, 2, 2, 2)
    den = _mass(table, given)
    if den == 0.0:
        event = ", ".join(f"{k}={given[k]}" for k in VARIABLES if k in given)
        raise ZeroMassCondition(event or "(unconditional)")
    return _clip(_mass(table, {**target, **given}) / den)


def gaps_from_joint(joint) -> GapReport:
    """The gap report of ``joint`` from Pr[y=1 | v=1, l] and Pr[y=1 | vhat=1, l]."""
    py_v1 = [conditional_prob(joint, {"y": 1}, {"v": 1, "l": l}) for l in (0, 1)]
    py_vhat1 = [conditional_prob(joint, {"y": 1}, {"vhat": 1, "l": l}) for l in (0, 1)]
    g, g_hat = py_v1[1] - py_v1[0], py_vhat1[1] - py_vhat1[0]
    delta0, delta1 = (py_v1[l] - py_vhat1[l] for l in (0, 1))
    return GapReport(G=g, G_hat=g_hat, delta0=delta0, delta1=delta1, error=abs(g - g_hat))


def implied_rates(table, l):
    """(p, r) of one slice's (v, vhat) table, with flat index 2v + vhat."""
    m00, m01, m10, m11 = table
    pvhat1 = m01 + m11
    pv1 = m10 + m11
    if pvhat1 <= 0.0:
        raise InconsistentMarginals(
            f"marginals give Pr[vhat=1 | l={l}] = 0, so no precision is expressible"
        )
    if pv1 <= 0.0:
        raise InconsistentMarginals(
            f"marginals give Pr[v=1 | l={l}] = 0, so no recall is expressible"
        )
    return _clip(m01 / pvhat1), _clip(m10 / pv1)


def expand_cells(model, marginals):
    """The 16 cells of ``expand(model, marginals)``, written one (v, vhat) cell at a time,
    after the same checks and with the same messages."""
    cells = np.zeros(16)
    for l, (params, table) in enumerate(zip(model.slices(), marginals.tables())):
        if params.d is None:
            raise MissingCell(f"expand needs d on slice {l}; the model omits it")
        implied_p, implied_r = implied_rates(table, l)
        if abs(implied_p - params.p) > VALIDATION_TOL:
            raise InconsistentMarginals(
                f"slice {l}: marginals imply p = {implied_p!r}, model has {params.p!r}"
            )
        if abs(implied_r - params.r) > VALIDATION_TOL:
            raise InconsistentMarginals(
                f"slice {l}: marginals imply r = {implied_r!r}, model has {params.r!r}"
            )
        weight = marginals.pr_l1 if l == 1 else 1.0 - marginals.pr_l1
        outcome = {(0, 0): params.d, (0, 1): params.c, (1, 0): params.b, (1, 1): params.a}
        for v in (0, 1):
            for vhat in (0, 1):
                mass = weight * table[2 * v + vhat]
                q = outcome[(v, vhat)]
                base = 8 * l + 4 * v + 2 * vhat
                cells[base + 1] = mass * q
                cells[base] = mass * (1.0 - q)
    return cells


def constrained_attempt(stream, eps_b1, eps_b2):
    """The cells a0, b0, c0, a1, b1, c1 of one constrained attempt, which may fall outside
    [0, 1]. It draws the shift g on [-1, 1]; a0 then b0 on the g-feasible range;
    c0's diagonal residual on [-eps_b1, eps_b1]; then the residuals of a1, b1, c1 on
    [-eps_b2, eps_b2] in one call."""
    g = stream.uniform(-1.0, 1.0)
    lo, hi = (0.0, 1.0 - g) if g >= 0.0 else (-g, 1.0)
    a0 = stream.uniform(lo, hi)
    b0 = stream.uniform(lo, hi)
    c0 = b0 + stream.uniform(-eps_b1, eps_b1)
    ea, eb, ec = stream.uniform(-eps_b2, eps_b2, size=3)
    return a0, b0, c0, a0 + g + ea, b0 + g + eb, c0 + g + ec


def constrained_trial(config, stream):
    """The error of one constrained trial and the attempts it took: the first attempt with
    every cell in [0, 1] is kept; :class:`RejectionBudgetExhausted` after
    ``config.max_rejections`` attempts."""
    for attempt in range(1, config.max_rejections + 1):
        cells = constrained_attempt(stream, config.eps_b1, config.eps_b2)
        if all(0.0 <= x <= 1.0 for x in cells):
            a0, b0, c0, a1, b1, c1 = cells
            model = ReducedModel(
                slice0=SliceParams(p=config.p0, r=config.r0, a=a0, b=b0, c=c0),
                slice1=SliceParams(p=config.p1, r=config.r1, a=a1, b=b1, c=c1),
            )
            return compute_gaps(model).error, attempt
    raise RejectionBudgetExhausted(config.max_rejections)


def _parse_cell(raw, column, line, optional):
    if raw == "0":
        return 0
    if raw == "1":
        return 1
    if raw == "" and optional:
        return None
    raise MalformedRow(line, f"column {column!r} must be 0 or 1, got {raw!r}")


def parse_records_text(text):
    """The dataset of records CSV ``text``, a str, or the error the parser raises on it:
    every row's cells checked one at a time, l, v, vhat and y first, and v and ystar
    each required to stay as present or empty as on the first row."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise EmptyInput("no header row")
    if tuple(header) not in (("l", "v", "vhat", "y"), ("l", "v", "vhat", "y", "ystar")):
        raise MalformedRow(1, f"header must be l,v,vhat,y[,ystar], got {','.join(header)!r}")
    width = len(header)
    columns = {name: [] for name in header}
    v_empty = ystar_empty = None
    for row in reader:
        line = reader.line_num
        if len(row) != width:
            raise MalformedRow(line, f"expected {width} columns, got {len(row)}")
        cells = [
            _parse_cell(raw, name, line, name == "v")
            for raw, name in zip(row[:4], ("l", "v", "vhat", "y"))
        ]
        if v_empty is None:
            v_empty = cells[1] is None
        elif (cells[1] is None) != v_empty:
            raise MixedSchema(line, "column 'v' must be uniformly present or empty")
        if width == 5:
            cells.append(_parse_cell(row[4], "ystar", line, True))
            if ystar_empty is None:
                ystar_empty = cells[4] is None
            elif (cells[4] is None) != ystar_empty:
                raise MixedSchema(line, "column 'ystar' must be uniformly present or empty")
        for name, cell in zip(header, cells):
            columns[name].append(cell)
    if v_empty is None:
        raise EmptyInput("no data rows after the header")
    return RecordDataset(
        l=columns["l"], vhat=columns["vhat"], y=columns["y"],
        v=None if v_empty else columns["v"],
        ystar=None if width == 4 or ystar_empty else columns["ystar"],
    )


def _uniform_cdf(s, eps):
    """Pr[e <= s] for e uniform on [-eps, eps] (the point 0 when eps is 0)."""
    if eps == 0.0:
        return (s >= 0.0).astype(float)
    return np.clip((s + eps) / (2.0 * eps), 0.0, 1.0)


def _uniform_cdf_integral(s, eps):
    """The integral of ``_uniform_cdf`` from -inf to s: 0, then (s + eps)^2 / 4 eps, then s."""
    if eps == 0.0:
        return np.maximum(s, 0.0)
    return np.maximum(s - eps, 0.0) + (np.clip(s, -eps, eps) + eps) ** 2 / (4.0 * eps)


def _keep(x, eps):
    """F(x) = Pr[x + e in [0, 1]], e uniform on [-eps, eps]: clipped-linear in x."""
    return _uniform_cdf(1.0 - x, eps) - _uniform_cdf(-x, eps)


def _keep_integral(x, eps):
    """H(x), the integral of F from -inf to x: piecewise quadratic, rising from 0 to 1."""
    return _uniform_cdf_integral(-x, eps) - _uniform_cdf_integral(1.0 - x, eps) + 1.0


def constrained_acceptance(eps_b1, eps_b2, points=1000):
    """The chance that one attempt of ``constrained_attempt`` has every cell in [0, 1].

    a0 and b0 always lie in [0, 1]; c0, a1, b1 and c1 must. Given g, a0 is
    independent of (b0, c0), and each residual of slice 1 keeps its cell in
    [0, 1] with chance F of the cell it is added to, so
    P = E_g[ E[F(a0 + g)] * E_b0[F(b0 + g) * J(b0, g)] ], with J(b0, g) =
    E_e[1{b0 + e in [0, 1]} F(b0 + e + g)] for c0's residual e. The a0 and e
    expectations are differences of H, in closed form; g and b0 (as a
    fraction of its range) take a midpoint rule of ``points`` nodes each.
    """
    nodes = (np.arange(points) + 0.5) / points
    g = (2.0 * nodes - 1.0)[:, None]
    lo, width = np.maximum(-g, 0.0), 1.0 - np.abs(g)
    # E[F(a0 + g)], a0 uniform on [lo, lo + width]
    p_a = (_keep_integral(lo + width + g, eps_b2) - _keep_integral(lo + g, eps_b2)) / width
    b0 = lo + width * nodes[None, :]
    if eps_b1 == 0.0:
        j = _keep(b0 + g, eps_b2)
    else:
        top, bottom = np.minimum(eps_b1, 1.0 - b0), np.maximum(-eps_b1, -b0)
        j = (_keep_integral(b0 + g + top, eps_b2) - _keep_integral(b0 + g + bottom, eps_b2))
        j /= 2.0 * eps_b1
    return float((p_a * (_keep(b0 + g, eps_b2) * j).mean(axis=1, keepdims=True)).mean())
