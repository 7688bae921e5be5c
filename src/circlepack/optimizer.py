"""Quasi-Newton descent on the packing energy.

A BFGS iteration drives the elastic energy toward zero, with an Armijo
backtracking line search choosing the step length. Up to n = 320 circles,
the paper's largest instance, the inverse Hessian approximation is a dense
2n x 2n matrix that starts at the identity and receives a rank-two
correction after every accepted step; that update costs time and memory
quadratic in n. Above it the direction comes from limited-memory BFGS
(``lbfgs_direction``): the last ``LBFGS_MEMORY`` step and gradient-change
pairs, linear in n. Full mode evaluates energy and gradient over every
pair; local mode restricts both to neighbor lists rebuilt every
``REFRESH_PERIOD`` accepted steps, so an evaluation costs time linear in
the listed terms instead of quadratic in n. At the sizes the searches run,
n of a few tens, a step costs numpy calls more than arithmetic, which is
why the line search hands its trial steps to the energy kernel in chunks,
the first reaching down to the depth the previous search accepted at
(see ``line_search``), and why the trial that accepts a step hands back its
overlap depths: ``gradient_eval``, the one place a descent gets a gradient,
scatters the gradient at the new iterate from them instead of gathering
and measuring the point again (see ``bfgs_minimize``). A jammed descent
ends in steps too short to move any coordinate; every later step on the
same index would repeat such a step, so the descent ends there on a fresh
index and rebuilds an older one at once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    FEASIBLE_ENERGY,
    Depths,
    Energy,
    Layout,
    Rng,
    total_energy,
)
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
# local mode rebuilds its neighbor lists after this many accepted steps;
# 1, 5 and 20 each took more restarts than 10 on perfbench's hit-bestknown
REFRESH_PERIOD = 10

ARMIJO_SLOPE = 1e-4
MAX_HALVINGS = 50
CURVATURE_FLOOR = 1e-12

# the backtracking step lengths 1, 1/2, ..., 2**-MAX_HALVINGS (exact powers
# of two)
_STEPS = np.ldexp(1.0, -np.arange(MAX_HALVINGS + 1))
_STEPS.setflags(write=False)
# the sufficient-decrease factors ARMIJO_SLOPE * lam of those steps
_ARMIJO_STEPS = ARMIJO_SLOPE * _STEPS
_ARMIJO_STEPS.setflags(write=False)

# the inverse-Hessian update works on blocks of rows of about this many
# elements, so its temporaries (256 KiB each) stay in cache; any matrix up
# to 181 x 181 is one block
_BLOCK_ELEMENTS = 32768

# the dense inverse Hessian serves every size up to the paper's largest
# instance, so each run the paper describes keeps the dense trajectory;
# above it a descent keeps the LBFGS_MEMORY newest (s, y) pairs instead
# of a matrix that is 32 MB at n = 1000
DENSE_MAX_CIRCLES = 320
LBFGS_MEMORY = 10

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


class OptimizeStatus(enum.Enum):
    FEASIBLE = "feasible"
    GRADIENT_CONVERGED = "gradient_converged"
    ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True)
class IterationRecord:
    """Per-step trace handed to the optimizer callback.

    ``energy_before`` and ``energy_after`` are both measured with the index
    that was active during the step, so ``energy_after <= energy_before``
    holds for every accepted step even in local mode.

    ``iterate`` and ``gradient`` are the flat 2n vectors (x1, y1, ..., xn,
    yn) the step ended at; ``inv_hessian`` is the run's one exactly symmetric
    2n x 2n array (None above ``DENSE_MAX_CIRCLES``), which later updates and
    restarts overwrite in place, so a callback that keeps it sees it change.
    """

    iteration: int
    energy_before: float
    energy_after: float
    gradient_norm: float
    step_length: float
    index_age: int
    restarted: bool
    iterate: np.ndarray
    gradient: np.ndarray
    inv_hessian: np.ndarray | None


@dataclass(frozen=True)
class OptimizeOutcome:
    """Final layout and bookkeeping of one minimization run.

    ``energy`` is always the exact all-pairs energy of ``layout``;
    ``status`` is FEASIBLE only when that exact total is below the
    feasibility threshold. ``evaluations`` counts evaluations against the
    active index: each trial point of the one-step-at-a-time line search,
    and one per ``gradient_eval`` call, whether it takes the accepted
    trial's depths or measures the point afresh.
    """

    layout: Layout
    energy: Energy
    status: OptimizeStatus
    iterations: int
    evaluations: int


def line_search(
    eval_fn: Callable[..., tuple[int, float, Depths | None]],
    x: np.ndarray,
    d: np.ndarray,
    u0: float,
    slope: float,
    depth: int = 0,
) -> tuple[float, float, Depths | None, int]:
    """Backtracking step length along ``d`` from ``x``, the value there,
    the depths the trial kernel handed back for that point and the number
    of halvings the accepted step took.

    ``slope`` is the directional derivative g0 . d at ``x``. The step
    lengths 1, 1/2, ..., 2**-50 are tried in order and the first that meets
    the sufficient-decrease condition U(x + lam*d) <= u0 + 1e-4 * lam *
    slope is accepted, then polished (see ``_refine``). Returns (0.0, u0,
    None, 0) when all 51 fail or when ``d`` is not a descent direction;
    callers are expected to restart from steepest descent.

    ``eval_fn(x, d, steps, limits)`` is a trial kernel with the contract of
    ``neighbors.index_energy``: it walks the steps in order, stops at the
    first whose value is at most its limit, and returns ``(k, value,
    depths)``, where ``depths`` may be None (the caller then evaluates the
    accepted point afresh). ``depth`` only sets how the steps are handed
    to it; the caller passes the halvings its previous search accepted at.
    The first call takes the steps from the unit step down to that depth,
    rows 0 to ``depth``, and each later call runs from where the last one
    ended to twice that bound plus one (at most row 50), one step more than
    all the calls before it. A one-step call goes as two floats, so after
    depth 0 the unit step goes alone and the later calls take rows 1-2,
    3-6, 7-14, 15-30 and 31-50. A search that accepts at or before the
    previous depth makes one kernel call; one that accepts past it
    computes fewer than twice the trial points the one-step-at-a-time
    search would. Either way the accepted step, its value and its halvings
    are those of the one-step-at-a-time search, bit for bit.
    """
    if slope >= 0.0:
        return 0.0, u0, None, 0
    start, stop = 0, depth + 1
    while start <= MAX_HALVINGS:
        if stop - start == 1:
            # a one-step chunk goes as two floats; the unit step's limit has
            # the bits of u0 + ARMIJO_SLOPE * slope
            steps, limits = float(_STEPS[start]), u0 + float(_ARMIJO_STEPS[start]) * slope
        else:
            steps, limits = _STEPS[start:stop], u0 + _ARMIJO_STEPS[start:stop] * slope
        k, value, depths = eval_fn(x, d, steps, limits)
        if k < stop - start:
            lam = float(_STEPS[start + k])
            return (*_refine(eval_fn, x, d, u0, slope, lam, value, depths), start + k)
        start, stop = stop, min(2 * stop + 1, MAX_HALVINGS + 1)
    return 0.0, u0, None, 0


def _refine(eval_fn, x, d, u0, slope, lam, value, depths):
    """Quadratic-interpolation polish of an accepted step length.

    The energy restricted to a line is piecewise quadratic, so the fitted
    minimizer is frequently exact; a candidate is adopted only when it
    strictly lowers the value, which preserves the Armijo guarantee, and
    the depths of the point adopted last are returned with it. Each
    candidate is one trial: a one-step kernel call whose infinite limit
    accepts any value.
    """
    for _ in range(REFINE_ROUNDS):
        denom = value - u0 - slope * lam
        if denom <= 0.0:
            break
        star = -slope * lam * lam / (2.0 * denom)
        if not (0.0 < star <= REFINE_CAP * lam) or star == lam:
            break
        _, candidate, trial = eval_fn(x, d, star, math.inf)
        if candidate >= value:
            break
        lam, value, depths = star, candidate, trial
    return lam, value, depths


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
    time, and each block is mirrored below the diagonal.

    The three outer products go through ``np.einsum``, which is faster
    than a broadcast multiply here. einsum adds each product to a zeroed
    output, so a product that is -0.0 comes out as +0.0; every other value
    has the same bits. That sign cannot reach ``h``: it starts as the
    identity (``np.eye`` or ``_reset_to_identity``), which holds no -0.0,
    and in round-to-nearest ``h - p`` and ``h + q`` give -0.0 only when
    ``h`` is -0.0 (a nonzero result never rounds to zero, since a sum
    that small is exact). So ``h`` never holds -0.0, and ``h - (+0.0)``
    and ``h - (-0.0)``, like ``h + (+0.0)`` and ``h + (-0.0)``, are ``h``.
    """
    ys = float(np.dot(y, s))
    floor = CURVATURE_FLOOR * math.sqrt(float(s.dot(s))) * math.sqrt(float(y.dot(y)))
    if ys <= floor:
        return h
    rho = 1.0 / ys
    hy = h @ y
    scale = rho * rho * float(np.dot(y, hy)) + rho
    m = h.shape[0]
    rows = max(1, _BLOCK_ELEMENTS // m)
    for r0 in range(0, m, rows):
        r1 = r0 + rows
        block = h[r0:r1, r0:]
        a = np.einsum("i,j->ij", s[r0:r1], hy[r0:])
        a += np.einsum("i,j->ij", hy[r0:r1], s[r0:])
        a *= rho
        block -= a
        np.einsum("i,j->ij", s[r0:r1], s[r0:], out=a)
        a *= scale
        block += a
        # empty past the last block
        h[r1:, r0:r1] = h[r0:r1, r1:].T
    return h


def _reset_to_identity(h: np.ndarray) -> None:
    h.fill(0.0)
    np.fill_diagonal(h, 1.0)


def lbfgs_push(memory: list, s: np.ndarray, y: np.ndarray) -> None:
    """Store step ``s`` and gradient change ``y`` as the newest pair.

    Skips the pair when its curvature y.s is not safely positive, the test
    ``update_inverse_hessian`` applies, and drops the oldest pair once
    ``memory`` holds ``LBFGS_MEMORY``. Entries are (s, y, 1/(y.s)).
    """
    ys = float(np.dot(y, s))
    if ys <= CURVATURE_FLOOR * math.sqrt(float(s.dot(s))) * math.sqrt(float(y.dot(y))):
        return
    if len(memory) >= LBFGS_MEMORY:
        del memory[0]
    memory.append((s, y, 1.0 / ys))


def lbfgs_direction(g: np.ndarray, memory: list) -> np.ndarray:
    """H @ g for the limited-memory inverse Hessian of ``memory``.

    H is what ``update_inverse_hessian`` would make of gamma * I applied
    with the stored pairs, oldest first, where gamma = s.y / y.y of the
    newest pair (Shanno-Phua scaling; the identity when ``memory`` is
    empty). The two-loop recursion of Liu and Nocedal (1989) computes the
    product in O(len(memory) * n) without forming H.
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        alpha = rho * float(np.dot(s, q))
        q -= alpha * y
        alphas.append(alpha)
    if memory:
        _, y, rho = memory[-1]
        q *= 1.0 / (rho * float(np.dot(y, y)))
    for (s, y, rho), alpha in zip(memory, reversed(alphas)):
        beta = rho * float(np.dot(y, q))
        q += (alpha - beta) * s
    return q


def bfgs_minimize(
    layout: Layout,
    radius: float | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    mode: str = "local",
    rng: Rng | None = None,
    container_margin: float = DEFAULT_CONTAINER_MARGIN,
    pair_margin: float = DEFAULT_PAIR_MARGIN,
    callback: Callable[[IterationRecord], None] | None = None,
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

    ``mode`` is ``full`` (every pair and wall term) or ``local`` (neighbor
    lists of the pairs within ``pair_margin`` and the wall terms within
    ``container_margin``, rebuilt every ``REFRESH_PERIOD`` accepted steps);
    both margins must be >= 0. These are the descent settings: the search
    layers above always run the defaults, so this is the only function
    that takes them and the only place they are checked.

    FEASIBLE needs the exact all-pairs energy to confirm an index energy
    below the threshold; an unconfirmed zero or a small gradient ends the
    run only on a fresh index, and a stale one is rebuilt first. With both
    margins infinite the index provably covers every term, so the local run
    follows the full-mode trajectory bit for bit.

    Each line search is handed the halvings the previous one accepted at
    (0 at the start and after a failed search), which sets only how its
    trials are chunked. Every energy and gradient the descent steps on
    comes from ``gradient_eval``: at the start, after a rebuild and after
    each accepted step. A step hands it the depths of the line-search
    trial that accepted it, which give the bits a fresh evaluation would,
    so the point is not measured again; after a rebuild, or from a kernel
    that keeps no depths, it measures the point itself. Either way it
    nudges coincident centres.

    A step that was no steepest-descent restart, ended on the index it
    started on and left the iterate, gradient and energy bit for bit
    unchanged would be repeated by every later step on that index. Like a
    small gradient, it ends the run after its callback on a fresh index,
    with ITERATION_LIMIT, the layout and status the stall window or the
    budget would end it with; a stale index is rebuilt at the iterate.

    Up to ``DENSE_MAX_CIRCLES`` circles the search direction comes from a
    dense inverse Hessian, above it from limited-memory BFGS; a
    steepest-descent restart resets either to the identity.
    """
    if mode not in ("full", "local"):
        raise ValueError(f"mode must be 'full' or 'local', got {mode!r}")
    # each check is written so that NaN fails too
    if not container_margin >= 0.0:
        raise ValueError(f"container_margin must be >= 0, got {container_margin}")
    if not pair_margin >= 0.0:
        raise ValueError(f"pair_margin must be >= 0, got {pair_margin}")
    if not (max_iterations >= 1 and max_iterations % 1 == 0):
        raise ValueError(f"max_iterations must be an integer >= 1, got {max_iterations}")
    r = layout.radius if radius is None else float(radius)
    if not math.isfinite(r) or r <= 0.0:
        raise ValueError(f"container radius must be positive and finite, got {r}")

    n = layout.n
    # with both margins infinite the index lists every term and never ages
    covers_all = mode == "full" or (math.isinf(container_margin) and math.isinf(pair_margin))
    evaluations = 0
    # accepted steps since the index was built
    age = 0

    def rebuild(vec):
        nonlocal index, age
        index, age = _build_index_raw(vec.reshape(n, 2), r, container_margin, pair_margin), 0

    def evaluate(vec, depths=None):
        nonlocal evaluations
        evaluations += 1
        depths, grad, centers = gradient_eval(vec.reshape(n, 2), r, index, rng, depths)
        return depths.total, centers.reshape(-1), grad.reshape(-1)

    def trial_energy(origin, d, steps, limits):
        nonlocal evaluations
        k, value, depths = index_energy(origin, d, steps, limits, r, index)
        # steps past the accepted one were evaluated speculatively; the
        # count is that of the one-step-at-a-time search
        evaluations += 1 if isinstance(steps, float) else min(k + 1, steps.size)
        return k, value, depths

    x = np.array(layout.centers, dtype=float).reshape(-1)
    if mode == "full":
        index = full_index(n)
    else:
        rebuild(x)
    total, x, g = evaluate(x)
    # the (s, y) pairs of limited-memory BFGS, None while H is dense
    memory = None if n <= DENSE_MAX_CIRCLES else []
    inv_hessian = np.eye(2 * n) if memory is None else None
    iteration = 0
    best_seen = total
    stall_anchor = 0
    # the halvings the last line search accepted at (0 after a failed one);
    # the next search starts its trials around that depth
    halvings = 0

    while True:
        # the bits of np.linalg.norm(g), without its dispatch
        gnorm = math.sqrt(float(g.dot(g)))
        # reported only on an exit from this iteration, never after a rebuild
        exact = None
        if total < FEASIBLE_ENERGY:
            exact = total_energy(Layout(x.reshape(n, 2), r))
            if exact.total < FEASIBLE_ENERGY:
                status = OptimizeStatus.FEASIBLE
                break
        if exact is not None or gnorm < GRADIENT_TOLERANCE:
            # a fresh index lists nothing left to descend on (any remaining
            # violations sit outside its margins); a stale one is rebuilt first
            if age == 0:
                status = OptimizeStatus.GRADIENT_CONVERGED
                break
            rebuild(x)
            total, x, g = evaluate(x)
            continue
        if iteration >= max_iterations:
            status = OptimizeStatus.ITERATION_LIMIT
            break

        # one steepest-descent restart when the quasi-Newton step fails
        for restarted in (False, True):
            if restarted:
                if memory is None:
                    _reset_to_identity(inv_hessian)
                else:
                    memory.clear()
                direction = -g
            elif memory is None:
                direction = -(inv_hessian @ g)
            else:
                direction = -lbfgs_direction(g, memory)
            slope = float(np.dot(g, direction))
            lam, accepted, depths, halvings = line_search(
                trial_energy, x, direction, total, slope, halvings
            )
            if lam > 0.0:
                break
        if lam == 0.0:
            status = OptimizeStatus.ITERATION_LIMIT
            break
        # the bits of the accepted trial point
        x_new = x + lam * direction
        step_index, step_age = index, age
        iteration += 1
        if not covers_all:
            age += 1
            if age >= REFRESH_PERIOD:
                rebuild(x_new)
                depths = None

        energy_before = total
        # the accepted trial's depths give its gradient on the index they
        # were taken on; after a rebuild the point is measured afresh
        total, x_new, g_new = evaluate(x_new, depths)
        # free the trial block behind the depths before the next step's
        depths = None
        # every input of the next step on this index is this step's (both
        # updates skip a zero step), so it would repeat it
        frozen = (
            not restarted
            and index is step_index
            and x_new.tobytes() == x.tobytes()
            and g_new.tobytes() == g.tobytes()
            and np.float64(total).tobytes() == np.float64(energy_before).tobytes()
        )
        if memory is None:
            inv_hessian = update_inverse_hessian(inv_hessian, x_new - x, g_new - g)
        else:
            lbfgs_push(memory, x_new - x, g_new - g)
        x, g = x_new, g_new
        if callback is not None:
            callback(
                IterationRecord(
                    iteration=iteration,
                    energy_before=energy_before,
                    energy_after=accepted,
                    gradient_norm=gnorm,
                    step_length=lam,
                    index_age=step_age,
                    restarted=restarted,
                    iterate=x,
                    gradient=g,
                    inv_hessian=inv_hessian,
                )
            )
        if frozen:
            if step_age == 0:
                status = OptimizeStatus.ITERATION_LIMIT
                break
            rebuild(x)
            total, x, g = evaluate(x)
            continue
        if best_seen - total > STALL_RELATIVE_DROP * max(abs(total), 1e-300):
            best_seen = total
            stall_anchor = iteration
        elif iteration - stall_anchor >= STALL_WINDOW:
            status = OptimizeStatus.ITERATION_LIMIT
            break

    final_layout = Layout(x.reshape(n, 2), r)
    return OptimizeOutcome(
        layout=final_layout,
        energy=total_energy(final_layout) if exact is None else exact,
        status=status,
        iterations=iteration,
        evaluations=evaluations,
    )


def run_bounded(layout: Layout, radius: float, h: int, rng: Rng | None = None) -> Layout:
    """Run at most ``h`` local-mode steps at ``radius`` and return the layout.

    No feasibility requirement: this is the short burst the hop strategies
    use to let a perturbed layout settle; ``bfgs_minimize`` rejects an
    ``h`` below 1.
    """
    return bfgs_minimize(layout, radius=radius, max_iterations=h, rng=rng).layout
