"""Quasi-Newton descent on the packing energy.

A dense BFGS iteration drives the elastic energy toward zero: the inverse
Hessian approximation starts at the identity and receives a rank-two
correction after every accepted step, with an Armijo backtracking line
search choosing the step length. Full mode evaluates energy and gradient
over every pair; local mode restricts both to the neighbor lists and
refreshes them on a fixed period, which is where the speed comes from.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .geometry import FEASIBLE_ENERGY, Energy, Layout, Rng, total_energy
from .neighbors import (
    DEFAULT_CONTAINER_MARGIN,
    DEFAULT_PAIR_MARGIN,
    _build_index_raw,
    full_index,
    gradient_eval,
    index_energy,
)

GRADIENT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 5000
DEFAULT_REFRESH_PERIOD = 10

ARMIJO_SLOPE = 1e-4
MAX_HALVINGS = 50
CURVATURE_FLOOR = 1e-12

# the inverse-Hessian update works on blocks of rows of about this many
# elements, so its two scratch buffers (256 KiB each) stay in cache; any
# matrix up to 181 x 181 is one block
_BLOCK_ELEMENTS = 32768

# after Armijo acceptance the step is polished toward the 1-D minimizer by
# fitting a quadratic through (0, u0, slope) and the accepted point; two
# rounds with a 4x step cap are enough to keep descending where opposing
# contact forces nearly balance and plain backtracking stalls
REFINE_ROUNDS = 2
REFINE_CAP = 4.0

# a jammed layout keeps "improving" by float cancellation noise (~1e-17
# absolute per step) essentially forever; once a hundred accepted steps in
# a row fail to lower the best energy by one part in 1e12 the run cannot
# make real progress anymore and is cut off as ITERATION_LIMIT
STALL_WINDOW = 100
STALL_RELATIVE_DROP = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Descent settings shared by every layer that runs the optimizer.

    ``mode`` is ``full`` (every pair and wall term) or ``local`` (neighbor
    lists rebuilt every ``refresh_period`` accepted steps, listing pairs and
    wall terms within ``pair_margin`` and ``container_margin``). The only
    place these settings are validated.
    """

    mode: str = "local"
    refresh_period: int = DEFAULT_REFRESH_PERIOD
    container_margin: float = DEFAULT_CONTAINER_MARGIN
    pair_margin: float = DEFAULT_PAIR_MARGIN

    def __post_init__(self):
        mode = str(self.mode).strip().lower()
        if mode not in ("full", "local"):
            raise ValueError(f"mode must be 'full' or 'local', got {self.mode!r}")
        object.__setattr__(self, "mode", mode)
        if self.refresh_period < 1:
            raise ValueError(f"refresh_period must be >= 1, got {self.refresh_period}")
        for name in ("container_margin", "pair_margin"):
            value = getattr(self, name)
            # written so that NaN fails too
            if not value >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")


class OptimizeStatus(enum.Enum):
    FEASIBLE = "feasible"
    GRADIENT_CONVERGED = "gradient_converged"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class BfgsState:
    """Mutable loop state: current iterate, gradient, inverse Hessian, count.

    ``iterate`` and ``gradient`` are flat 2n vectors ordered (x1, y1, ...,
    xn, yn). ``inv_hessian`` is one 2n x 2n array for the whole run: every
    update and every steepest-descent restart overwrites it in place, so a
    callback that keeps it sees it change. It starts as the identity and
    stays exactly symmetric, since each update maps a symmetric matrix to a
    symmetric one (see ``update_inverse_hessian``). Confined to one solver
    run.
    """

    iterate: np.ndarray
    gradient: np.ndarray
    inv_hessian: np.ndarray
    iteration: int = 0


@dataclass(frozen=True)
class IterationRecord:
    """Per-step trace handed to the optimizer callback.

    ``energy_before`` and ``energy_after`` are both measured with the index
    that was active during the step, so ``energy_after <= energy_before``
    holds for every accepted step even in local mode.
    """

    iteration: int
    energy_before: float
    energy_after: float
    gradient_norm: float
    step_length: float
    index_age: int
    restarted: bool


@dataclass(frozen=True)
class OptimizeOutcome:
    """Final layout and bookkeeping of one minimization run.

    ``energy`` is always the exact all-pairs energy of ``layout``;
    ``status`` is FEASIBLE only when that exact total is below the
    feasibility threshold. ``evaluations`` counts energy and gradient
    evaluations against the active index (line-search trials included).
    """

    layout: Layout
    energy: Energy
    status: OptimizeStatus
    iterations: int
    evaluations: int


def line_search(
    eval_fn: Callable[[np.ndarray], float],
    x: np.ndarray,
    d: np.ndarray,
    u0: float,
    g0: np.ndarray,
) -> float:
    """Backtracking step length along ``d`` from ``x``.

    Starts at 1 and halves until the sufficient-decrease condition
    U(x + lam*d) <= u0 + 1e-4 * lam * (g0 . d) holds, giving up after 50
    halvings. Returns 0.0 on failure or when ``d`` is not a descent
    direction; callers are expected to restart from steepest descent.
    """
    slope = float(np.dot(np.asarray(g0, dtype=float), np.asarray(d, dtype=float)))
    lam, _ = _backtrack(eval_fn, x, d, u0, slope)
    return lam


def _backtrack(eval_fn, x, d, u0, slope):
    if slope >= 0.0:
        return 0.0, u0
    lam = 1.0
    for _ in range(MAX_HALVINGS + 1):
        value = eval_fn(x + lam * d)
        if value <= u0 + ARMIJO_SLOPE * lam * slope:
            return _refine(eval_fn, x, d, u0, slope, lam, value)
        lam *= 0.5
    return 0.0, u0


def _refine(eval_fn, x, d, u0, slope, lam, value):
    """Quadratic-interpolation polish of an accepted step length.

    The energy restricted to a line is piecewise quadratic, so the fitted
    minimizer is frequently exact; a candidate is adopted only when it
    strictly lowers the value, which preserves the Armijo guarantee.
    """
    for _ in range(REFINE_ROUNDS):
        denom = value - u0 - slope * lam
        if denom <= 0.0:
            break
        star = -slope * lam * lam / (2.0 * denom)
        if not (0.0 < star <= REFINE_CAP * lam) or star == lam:
            break
        candidate = eval_fn(x + star * d)
        if candidate >= value:
            break
        lam, value = star, candidate
    return lam, value


def update_inverse_hessian(h: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rank-two inverse-Hessian correction from step s and gradient change y.

    Equivalent to (I - s y^T/(y.s)) H (I - y s^T/(y.s)) + s s^T/(y.s) but
    expanded so the cost stays at one matrix-vector product and a few
    element-wise passes instead of dense matrix-matrix multiplies. ``h``
    must be exactly symmetric; it is overwritten and returned. When the
    curvature y.s is not safely positive the update is skipped and ``h``
    comes back unchanged, which keeps the approximation positive definite.

    Element (i, j) becomes h_ij - rho*(s_i*hy_j + hy_i*s_j) + scale*(s_i*s_j),
    the IEEE operations of h - rho*(outer(s, hy) + outer(hy, s)) +
    scale*outer(s, s) in the same order. Swapping i and j only swaps the
    operands of a sum and of products, which commute exactly, so element
    (j, i) gets the same bits: the result is exactly symmetric without any
    averaging. Only the upper triangle is computed, a block of rows at a
    time in two scratch buffers, and each block is mirrored below the
    diagonal.
    """
    ys = float(np.dot(y, s))
    floor = CURVATURE_FLOOR * float(np.linalg.norm(s)) * float(np.linalg.norm(y))
    if ys <= floor:
        return h
    rho = 1.0 / ys
    hy = h @ y
    scale = rho * rho * float(np.dot(y, hy)) + rho
    m = h.shape[0]
    rows = min(m, max(1, _BLOCK_ELEMENTS // m))
    scratch = np.empty((2, rows * m))
    for r0 in range(0, m, rows):
        r1 = min(r0 + rows, m)
        block = h[r0:r1, r0:]
        a = scratch[0, : block.size].reshape(block.shape)
        b = scratch[1, : block.size].reshape(block.shape)
        np.multiply(s[r0:r1, None], hy[r0:], out=a)
        np.multiply(hy[r0:r1, None], s[r0:], out=b)
        np.add(a, b, out=a)
        np.multiply(a, rho, out=a)
        np.subtract(block, a, out=block)
        np.multiply(s[r0:r1, None], s[r0:], out=a)
        np.multiply(a, scale, out=a)
        np.add(block, a, out=block)
        if r1 < m:
            h[r1:, r0:r1] = h[r0:r1, r1:].T
    return h


def _reset_to_identity(h: np.ndarray) -> None:
    h.fill(0.0)
    np.fill_diagonal(h, 1.0)


def bfgs_minimize(
    layout: Layout,
    radius: float | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    mode: str = "local",
    rng: Rng | None = None,
    refresh_period: int = DEFAULT_REFRESH_PERIOD,
    container_margin: float = DEFAULT_CONTAINER_MARGIN,
    pair_margin: float = DEFAULT_PAIR_MARGIN,
    callback: Callable[[BfgsState, IterationRecord], None] | None = None,
) -> OptimizeOutcome:
    """Minimize the elastic energy of ``layout`` at a fixed container radius.

    ``radius`` overrides the layout's own radius when given (the search
    strategies reuse coordinates across radii this way). Terminates when the
    energy drops below the feasibility threshold, the gradient norm falls
    under 1e-10, or ``max_iterations`` accepted steps have been taken; a
    line-search failure triggers one steepest-descent restart and a second
    consecutive failure ends the run at the current iterate. Runs whose
    best energy stops dropping for STALL_WINDOW consecutive steps are cut
    off early with ITERATION_LIMIT: jammed layouts drift by cancellation
    noise only and would otherwise spin out the whole budget.

    In local mode the neighbor index is rebuilt every ``refresh_period``
    accepted steps. Energy-based termination is confirmed against the exact
    all-pairs energy before FEASIBLE is reported; an apparent zero that the
    index cannot corroborate forces a rebuild instead of a false positive.
    With both margins infinite the index provably covers every term, so the
    local run follows the full-mode trajectory bit for bit.
    """
    config = SolverConfig(mode, refresh_period, container_margin, pair_margin)
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    r = layout.radius if radius is None else float(radius)
    if not math.isfinite(r) or r <= 0.0:
        raise ValueError(f"container radius must be positive and finite, got {r}")

    n = layout.n
    local = config.mode == "local"
    if local:
        index = _build_index_raw(layout.centers, r, container_margin, pair_margin)
    else:
        index = full_index(n)
    covers_all = (not local) or (math.isinf(container_margin) and math.isinf(pair_margin))

    evaluations = 0

    def _gradient_at(points):
        nonlocal evaluations
        evaluations += 1
        return gradient_eval(points, r, index, rng)

    def _energy_at(vec):
        nonlocal evaluations
        evaluations += 1
        return index_energy(vec.reshape(n, 2), r, index)

    total, _, _, grad, centers = _gradient_at(np.array(layout.centers, dtype=float))
    x = centers.reshape(-1)
    g = grad.reshape(-1)
    gnorm = float(np.linalg.norm(g))
    state = BfgsState(iterate=x, gradient=g, inv_hessian=np.eye(2 * n))
    status = None
    final_energy = None
    best_seen = total
    stall_anchor = 0

    while True:
        if total < FEASIBLE_ENERGY:
            exact = total_energy(Layout(x.reshape(n, 2), r))
            if exact.total < FEASIBLE_ENERGY:
                status, final_energy = OptimizeStatus.FEASIBLE, exact
                break
            if index.age > 0:
                index = _build_index_raw(x.reshape(n, 2), r, container_margin, pair_margin)
                total, _, _, grad, centers = _gradient_at(x.reshape(n, 2))
                x, g = centers.reshape(-1), grad.reshape(-1)
                gnorm = float(np.linalg.norm(g))
                continue
            # the index is fresh and lists nothing left to descend on; the
            # remaining violations sit outside its margins
            status, final_energy = OptimizeStatus.GRADIENT_CONVERGED, exact
            break
        if gnorm < GRADIENT_TOLERANCE:
            if covers_all or index.age == 0:
                status = OptimizeStatus.GRADIENT_CONVERGED
                break
            index = _build_index_raw(x.reshape(n, 2), r, container_margin, pair_margin)
            total, _, _, grad, centers = _gradient_at(x.reshape(n, 2))
            x, g = centers.reshape(-1), grad.reshape(-1)
            gnorm = float(np.linalg.norm(g))
            continue
        if state.iteration >= max_iterations:
            status = OptimizeStatus.ITERATION_LIMIT
            break

        direction = -(state.inv_hessian @ g)
        slope = float(np.dot(g, direction))
        restarted = False
        if slope >= 0.0:
            _reset_to_identity(state.inv_hessian)
            direction = -g
            slope = -float(np.dot(g, g))
            restarted = True
        lam, accepted = _backtrack(_energy_at, x, direction, total, slope)
        if lam == 0.0 and not restarted:
            _reset_to_identity(state.inv_hessian)
            direction = -g
            slope = -float(np.dot(g, g))
            restarted = True
            lam, accepted = _backtrack(_energy_at, x, direction, total, slope)
        if lam == 0.0:
            status = OptimizeStatus.ITERATION_LIMIT
            break

        x_new = x + lam * direction
        step_age = index.age
        state.iteration += 1
        if local and not covers_all:
            index.age += 1
            if index.age >= refresh_period:
                index = _build_index_raw(x_new.reshape(n, 2), r, container_margin, pair_margin)

        energy_before, gnorm_before = total, gnorm
        total, _, _, grad, centers = _gradient_at(x_new.reshape(n, 2))
        x_new = centers.reshape(-1)
        g_new = grad.reshape(-1)
        state.inv_hessian = update_inverse_hessian(state.inv_hessian, x_new - x, g_new - g)
        x, g = x_new, g_new
        gnorm = float(np.linalg.norm(g))
        state.iterate, state.gradient = x, g
        if callback is not None:
            callback(
                state,
                IterationRecord(
                    iteration=state.iteration,
                    energy_before=energy_before,
                    energy_after=accepted,
                    gradient_norm=gnorm_before,
                    step_length=lam,
                    index_age=step_age,
                    restarted=restarted,
                ),
            )
        if best_seen - total > STALL_RELATIVE_DROP * max(abs(total), 1e-300):
            best_seen = total
            stall_anchor = state.iteration
        elif state.iteration - stall_anchor >= STALL_WINDOW:
            status = OptimizeStatus.ITERATION_LIMIT
            break

    final_layout = Layout(x.reshape(n, 2), r)
    if final_energy is None:
        final_energy = total_energy(final_layout)
    return OptimizeOutcome(
        layout=final_layout,
        energy=final_energy,
        status=status,
        iterations=state.iteration,
        evaluations=evaluations,
    )


def run_bounded(
    layout: Layout,
    radius: float,
    h: int,
    rng: Rng | None = None,
    config: SolverConfig = SolverConfig(),
) -> Layout:
    """Run at most ``h`` local-mode steps at ``radius`` and return the layout.

    No feasibility requirement: this is the short burst the hop strategies
    use to let a perturbed layout settle. ``h`` = 0 returns the input
    coordinates untouched. The settle runs in local mode whatever
    ``config.mode`` says.
    """
    if h < 0:
        raise ValueError(f"iteration budget must be >= 0, got {h}")
    if h == 0:
        return layout.with_radius(radius)
    outcome = bfgs_minimize(
        layout, radius=radius, max_iterations=h, rng=rng, **vars(replace(config, mode="local"))
    )
    return outcome.layout
