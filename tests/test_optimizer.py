import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import circlepack as cp
from circlepack import neighbors, optimizer, search
from circlepack.geometry import (
    FEASIBLE_ENERGY,
    Layout,
    Rng,
    is_feasible,
    listed_depths,
    random_layout,
    total_energy,
)
from circlepack.optimizer import (
    OptimizeStatus,
    bfgs_minimize,
    lbfgs_direction,
    lbfgs_push,
    line_search,
    run_bounded,
    update_inverse_hessian,
)


def quadratic(x):
    return float(np.dot(x, x))


def kernel_of(fn, evaluated=None):
    """Trial kernel with the contract of ``neighbors.index_energy`` over a
    function of one point, evaluating one step at a time: walks the steps
    in order and stops at the first value at most its limit. It hands back
    no depths, so a descent evaluates each accepted point afresh. Appends
    one entry to ``evaluated`` per point evaluated."""

    def kernel(x, d, steps, limits):
        if isinstance(steps, float):
            steps, limits = (steps,), (limits,)
        for k, (lam, limit) in enumerate(zip(steps, limits)):
            value = fn(x + lam * d)
            if evaluated is not None:
                evaluated.append(lam)
            if value <= limit:
                return k, value, None
        return len(steps), value, None

    return kernel


def listed_energy(radius, index):
    """The index's energy at one flat point, as ``listed_depths`` gives it."""

    def energy(point):
        return listed_depths(
            point.reshape(-1, 2), radius, index.pair_i, index.pair_j, index.container_ids
        ).total

    return energy


def reference_index_energy(x, d, steps, limits, radius, index):
    """Reference: the trial kernel as one ``listed_depths`` call per step,
    which is what the optimizer ran for every trial before the chunks."""
    return kernel_of(listed_energy(radius, index))(x, d, steps, limits)


def reference_line_search(eval_fn, x, d, u0, slope, depth=0):
    """Reference: the one-step-at-a-time backtracking search and its
    quadratic polish, each trial its own one-step kernel call, whatever
    ``depth`` the previous search accepted at. It hands back no depths."""

    def trial(lam):
        return eval_fn(x, d, np.array([lam]), (math.inf,))[1]

    if slope >= 0.0:
        return 0.0, u0, None, 0
    lam = 1.0
    for halvings in range(optimizer.MAX_HALVINGS + 1):
        value = trial(lam)
        if value <= u0 + optimizer.ARMIJO_SLOPE * lam * slope:
            break
        lam *= 0.5
    else:
        return 0.0, u0, None, 0
    for _ in range(optimizer.REFINE_ROUNDS):
        denom = value - u0 - slope * lam
        if denom <= 0.0:
            break
        star = -slope * lam * lam / (2.0 * denom)
        if not (0.0 < star <= optimizer.REFINE_CAP * lam) or star == lam:
            break
        candidate = trial(star)
        if candidate >= value:
            break
        lam, value = star, candidate
    return lam, value, None, halvings


def test_line_search_full_step_on_easy_descent():
    x = np.array([1.0, 1.0])
    d = np.array([-1.0, -1.0])
    slope = float(np.dot(2.0 * x, d))
    lam, value, _, halvings = line_search(kernel_of(quadratic), x, d, quadratic(x), slope)
    assert halvings == 0
    assert 0.0 < lam <= 4.0
    assert value == quadratic(x + lam * d)
    assert quadratic(x + lam * d) < quadratic(x)


def test_line_search_rejects_ascent_direction():
    x = np.array([1.0, 0.0])
    d = np.array([1.0, 0.0])  # uphill
    u0 = quadratic(x)
    slope = float(np.dot(2.0 * x, d))
    assert line_search(kernel_of(quadratic), x, d, u0, slope) == (0.0, u0, None, 0)


def test_line_search_backtracks_on_overshoot():
    # steep narrow valley: unit step overshoots badly, halving recovers
    def steep(x):
        return float(100.0 * x[0] ** 2)

    x = np.array([1.0])
    d = np.array([-50.0])
    g = np.array([200.0])
    lam, _, _, _ = line_search(kernel_of(steep), x, d, steep(x), float(np.dot(g, d)))
    assert lam > 0.0
    assert steep(x + lam * d) <= steep(x) + 1e-4 * lam * float(np.dot(g, d))


def chunked_and_sequential(x, d, u0, slope, radius, index, depth=0):
    """(lam, value, trials, halvings) of the chunked search with the kernel,
    started at ``depth``, and of the reference search with the reference
    kernel, then the chunked search's number of kernel calls. The chunked
    side counts trials as the optimizer does; the reference side counts
    the points it actually evaluates."""
    counts = []

    def kernel(origin, direction, steps, limits):
        k, value, depths = neighbors.index_energy(origin, direction, steps, limits, radius, index)
        counts.append(1 if isinstance(steps, float) else min(k + 1, len(steps)))
        return k, value, depths

    lam, value, _, halvings = line_search(kernel, x, d, u0, slope, depth)
    evaluated = []
    want, want_value, _, want_halvings = reference_line_search(
        kernel_of(listed_energy(radius, index), evaluated), x, d, u0, slope
    )
    got = (lam, value, sum(counts), halvings)
    return got, (want, want_value, len(evaluated), want_halvings), len(counts)


def same_bits(a, b):
    return np.array(a, dtype=float).tobytes() == np.array(b, dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**31),
    density=st.floats(0.3, 0.95),
    margin=st.sampled_from([0.0, 0.5, 1.0, math.inf]),
    log_scale=st.floats(-12.0, 18.0),
    noise=st.floats(0.0, 2.0),
    lowered=st.sampled_from([0.0, 1e-13, 1e-6]),
    depth=st.integers(0, optimizer.MAX_HALVINGS),
)
@example(n=1, seed=0, density=0.5, margin=1.0, log_scale=1.0, noise=0.0, lowered=0.0, depth=0)
@example(n=30, seed=1, density=0.9, margin=1.0, log_scale=0.0, noise=3.0, lowered=0.0, depth=0)
@example(n=30, seed=1, density=0.9, margin=1.0, log_scale=-9.0, noise=0.0, lowered=1e-13, depth=20)
def test_line_search_matches_sequential_search(
    n, seed, density, margin, log_scale, noise, lowered, depth
):
    # a perturbed steepest-descent direction scaled over 30 orders of
    # magnitude makes the search accept anywhere from the unit step to the
    # last halving, fail, or start uphill; lowering u0 by a relative 1e-13
    # (how close stall-tail values sit to the Armijo limit) or 1e-6 makes
    # late acceptances and failures common. n = 1 lists no pair. The start
    # depth, any number of halvings a previous search can accept at, only
    # changes how the trials are handed to the kernel
    radius = 1.0 + math.sqrt(n / density)
    layout = random_layout(n, radius, Rng(seed))
    index = neighbors._build_index_raw(layout.centers, radius, margin, margin)
    energy, grad, centers = neighbors.gradient_eval(layout.centers, radius, index, Rng(seed))
    u0 = energy.total
    x = centers.reshape(-1)
    g = grad.reshape(-1)
    rng = np.random.default_rng(seed)
    d = -(g + noise * float(np.linalg.norm(g)) * rng.normal(size=x.size))
    norm = float(np.linalg.norm(d))
    if norm > 0.0:
        d *= 10.0**log_scale / norm
    u0 *= 1.0 - lowered
    got, want, _ = chunked_and_sequential(x, d, u0, float(np.dot(g, d)), radius, index, depth)
    assert same_bits(got, want)


def trap(n, accept_row):
    """Line whose sufficient-decrease test first passes at ``accept_row``.

    Circle 0 starts 1 inside the wall and moves straight out by
    2**accept_row: steps 2**-j with j < accept_row push it 2**(accept_row -
    j) - 1 >= 1 past the wall (energy >= 1 against limits just under u0 =
    0.5), steps from 2**-accept_row on keep it inside (energy 0). The other
    circles sit 3 apart on a grid and drift without touching anything.
    """
    side = math.ceil(math.sqrt(n))
    radius = 10.0 * side
    grid = 3.0 * np.array([(i % side, i // side + 1) for i in range(n)], dtype=float)
    grid[0] = (radius - 2.0, 0.0)
    d = 0.3 * np.random.default_rng(accept_row).uniform(-1.0, 1.0, size=(n, 2))
    d[0] = (2.0**accept_row, 0.0)
    return grid.reshape(-1), d.reshape(-1), radius, neighbors.full_index(n)


# the (start, stop) rows of every kernel call of a search that never
# passes, by the depth the previous search accepted at: the first call
# runs down to that depth, each later one to twice its start plus one
FAILING_SEARCH_CALLS = {
    0: [(0, 1), (1, 3), (3, 7), (7, 15), (15, 31), (31, 51)],
    1: [(0, 2), (2, 5), (5, 11), (11, 23), (23, 47), (47, 51)],
    4: [(0, 5), (5, 11), (11, 23), (23, 47), (47, 51)],
    30: [(0, 31), (31, 51)],
    49: [(0, 50), (50, 51)],
    50: [(0, 51)],
}


@pytest.mark.parametrize("depth", sorted(FAILING_SEARCH_CALLS))
def test_line_search_kernel_calls_of_a_failing_search(depth):
    # a one-step call goes as two floats, the others as arrays, and every
    # row's limit has the bits of the one-step-at-a-time search's
    u0, slope = 0.75, -3.0
    calls = []

    def never_passes(x, d, steps, limits):
        one_step = isinstance(steps, float)
        steps, limits = np.atleast_1d(steps), np.atleast_1d(limits)
        rows = [-int(np.log2(lam)) for lam in steps]
        assert rows == list(range(rows[0], rows[0] + len(rows)))
        want = [u0 + optimizer.ARMIJO_SLOPE * lam * slope for lam in steps]
        assert same_bits(limits, want)
        calls.append((rows[0], rows[-1] + 1, one_step))
        return len(steps), 1.0, None

    x, d = np.zeros(2), np.ones(2)
    assert line_search(never_passes, x, d, u0, slope, depth) == (0.0, u0, None, 0)
    assert calls == [(a, b, b - a == 1) for a, b in FAILING_SEARCH_CALLS[depth]]


# where the first chunk of a search started at a previous depth ends,
# relative to the accepting row: it holds rows 0 to depth
FIRST_CHUNK_ENDS = {"shallow": None, "before": -1, "at": 0, "after": 1, "far-after": 9}


def start_depth(accept_row, end):
    """The start depth whose first chunk ends ``FIRST_CHUNK_ENDS[end]``
    rows after ``accept_row`` (after row 30 for a search that never
    accepts), or 0 for a shallow start."""
    if FIRST_CHUNK_ENDS[end] is None:
        return 0
    row = 30 if accept_row is None else accept_row
    return min(max(row + FIRST_CHUNK_ENDS[end], 0), optimizer.MAX_HALVINGS)


@pytest.mark.parametrize("n", [2, 40], ids=["two-circles", "cap-binds"])
@pytest.mark.parametrize("accept_row", [0, 1, 2, 3, 6, 7, 14, 15, 30, 31, 50, None])
def test_line_search_chunk_boundaries(n, accept_row):
    # rows 0, 1-2, 3-6, 7-14, 15-30 and 31-50 are the chunks of a shallow
    # start; a deeper one first hands the kernel rows 0 to depth, then
    # chunks that double. None never passes (u0 = 0 puts every limit below
    # zero) and costs all 51 trials. At n = 40 every pair is listed: 820
    # terms make four-row blocks, so the chunks of 8 steps and more are
    # split
    x, d, radius, index = trap(n, 0 if accept_row is None else accept_row)
    if n == 40:
        assert neighbors._TRIAL_ELEMENTS // (index.pair_i.size + index.container_ids.size) < 8
    u0 = 0.0 if accept_row is None else 0.5
    for end in FIRST_CHUNK_ENDS:
        depth = start_depth(accept_row, end)
        got, want, calls = chunked_and_sequential(x, d, u0, -1.0, radius, index, depth)
        assert same_bits(got, want), end
        if accept_row is None:
            assert got == (0.0, 0.0, optimizer.MAX_HALVINGS + 1, 0)
            continue
        assert got == (2.0**-accept_row, 0.0, accept_row + 1, accept_row)
        # a search settles in one kernel call when its first chunk reaches
        # the accepting row, and in two when it ends just before (the
        # polish tries no candidate on this line)
        if depth >= accept_row:
            assert calls == 1, end
        elif end == "before":
            assert calls == 2, end


@pytest.mark.parametrize("n", [2, 40], ids=["two-circles", "cap-binds"])
@pytest.mark.parametrize("accept_row", [0, 1, 2, 3, 6, 7, 14, 15, 30, 31, 50, None])
def test_index_energy_hands_back_the_accepted_rows_depths(n, accept_row):
    # the trial kernel is called as line_search calls it after depth 0:
    # row 0 alone as a one-step call, the others in the chunk that holds
    # them. Limits of -1 reject every row before accept_row and +inf
    # accepts it (None rejects them all). Circles 0 and 1 overlap, and
    # circle 0 crosses the wall, so the depth arrays have active entries;
    # at n = 40 every pair is listed and the chunks of 8, 16 and 20 steps
    # are split into four-row blocks
    row = 0 if accept_row is None else accept_row
    radius = 1.0 + math.sqrt(n / 1.2)
    x = random_layout(n, radius, Rng(row)).coords()
    x[:4] = (radius - 0.5, 0.0, radius - 2.0, 0.3)
    d = 0.01 * np.random.default_rng(row).uniform(-1.0, 1.0, size=x.size)
    index = neighbors.full_index(n)
    start, stop = next(chunk for chunk in FAILING_SEARCH_CALLS[0] if row < chunk[1])
    rows = np.arange(start, stop)
    limits = np.where(rows == accept_row, math.inf, -1.0)
    if start == 0:
        k, value, depths = neighbors.index_energy(x, d, 1.0, float(limits[0]), radius, index)
    else:
        steps = optimizer._STEPS[start:stop]
        k, value, depths = neighbors.index_energy(x, d, steps, limits, radius, index)
    lam = optimizer._STEPS[row if accept_row is not None else stop - 1]
    want = listed_depths(
        (x + lam * d).reshape(n, 2), radius, index.pair_i, index.pair_j, index.container_ids
    )
    assert same_bits(value, want.total)
    if accept_row is None:
        assert (k, depths) == (stop - start, None)
        return
    assert k == accept_row - start
    assert depths.pair_depth.any() and depths.wall_depth.any()
    assert_same_depths(depths, want)


def assert_same_depths(depths, want):
    for got, expected in zip(depths, want):
        got, expected = np.asarray(got), np.asarray(expected)
        assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
        assert got.tobytes() == expected.tobytes()


# the ids name a short and a long block; both take one stacked sum of
# every row (the names are kept so that the test ids stay stable)
@pytest.mark.parametrize("rows", [2, 12], ids=["row-by-row", "shared-run"])
@pytest.mark.parametrize("accept_row", [0, 1, None])
@pytest.mark.parametrize("empty", ["pairs", "walls"])
def test_index_energy_block_depths_match_one_point_on_empty_gathers(empty, accept_row, rows):
    # the block stage gathers no term of one kind: n = 1 lists no pair,
    # and an index of all pairs at n = 6 with no wall term; the listed
    # terms of the other kind are active. The accepted row's depths, the
    # empty ones included, have the shapes, dtypes and bits of the
    # one-point stage, and its energy is the one-point energy
    if empty == "pairs":
        n, radius = 1, 1.5
        x = np.array([0.8, 0.0])
        index = neighbors.full_index(1)
    else:
        n, radius = 6, 2.0
        x = random_layout(n, 3.0, Rng(7)).coords()
        full = neighbors.full_index(n)
        index = neighbors.NeighborIndex(full.pair_i, full.pair_j, np.array([], dtype=np.intp), n)
    d = 0.01 * np.random.default_rng(rows).uniform(-1.0, 1.0, size=x.size)
    steps = optimizer._STEPS[:rows]
    limits = np.where(np.arange(rows) == accept_row, math.inf, -1.0)
    k, value, depths = neighbors.index_energy(x, d, steps, limits, radius, index)
    want = listed_depths(
        (x + steps[-1 if accept_row is None else accept_row] * d).reshape(n, 2),
        radius, index.pair_i, index.pair_j, index.container_ids,
    )
    assert same_bits(value, want.total)
    if accept_row is None:
        assert (k, depths) == (rows, None)
        return
    assert k == accept_row
    assert (depths.pair_depth.size == 0) == (empty == "pairs")
    assert (depths.wall_depth.size == 0) == (empty == "walls")
    assert depths.pair_depth.any() or depths.wall_depth.any()
    assert_same_depths(depths, want)


@pytest.mark.parametrize("accept_row", [0, 2, 4, 5, 7, 11, None])
def test_index_energy_settles_a_shared_run_and_the_rows_after_it(accept_row):
    # one 12-row block: circles 0 and 1 overlap and circle 0 crosses the
    # wall on every row, and circle 3 moves straight at circle 2 from 2.05
    # away, so the pair (2, 3) overlaps on rows 0-4 (steps above 0.05)
    # only. Rows 0-4 share row 0's active sets and rows 5-11 have other
    # ones; every row, whichever depths are zero, gets the bits of its
    # one-point energy and depths
    n, radius = 6, 10.0
    x = np.array([(9.5, 0.0), (8.0, 0.3), (0.0, 0.0), (2.05, 0.0), (-5.0, 0.0), (0.0, -5.0)])
    d = np.zeros((n, 2))
    d[3] = (-1.0, 0.0)
    d[4:] = 1e-3
    x, d = x.reshape(-1), d.reshape(-1)
    index = neighbors.full_index(n)
    steps = optimizer._STEPS[:12]

    def depths_at(lam):
        return listed_depths(
            (x + lam * d).reshape(n, 2), radius, index.pair_i, index.pair_j, index.container_ids
        )

    active = [
        np.concatenate((w.pair_depth > 0.0, w.wall_depth > 0.0)) for w in map(depths_at, steps)
    ]
    assert [a.tobytes() == active[0].tobytes() for a in active] == [True] * 5 + [False] * 7
    limits = np.where(np.arange(steps.size) == accept_row, math.inf, -1.0)
    k, value, depths = neighbors.index_energy(x, d, steps, limits, radius, index)
    want = depths_at(steps[-1 if accept_row is None else accept_row])
    assert same_bits(value, want.total)
    if accept_row is None:
        assert (k, depths) == (steps.size, None)
        return
    assert k == accept_row
    assert_same_depths(depths, want)


def test_update_inverse_hessian_matches_dense_formula():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.normal(size=(6, 6))
        h = m @ m.T + 6.0 * np.eye(6)  # symmetric positive definite
        s = rng.normal(size=6)
        y = rng.normal(size=6)
        if np.dot(y, s) <= 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            continue
        rho = 1.0 / np.dot(y, s)
        left = np.eye(6) - rho * np.outer(s, y)
        expected = left @ h @ left.T + rho * np.outer(s, s)
        got = update_inverse_hessian(h, s, y)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)
        assert np.array_equal(got, got.T)


def test_update_inverse_hessian_skips_flat_curvature():
    h = np.eye(4)
    s = np.array([1.0, 0.0, 0.0, 0.0])
    y = np.zeros(4)  # no curvature information
    assert np.array_equal(update_inverse_hessian(h, s, y), h)


def update_by_allocating_formula(h, s, y):
    """Reference: the inverse-Hessian update as one allocating expression
    followed by (M + M^T)/2 averaging. Returns a new array."""
    ys = float(np.dot(y, s))
    floor = 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y))
    if ys <= floor:
        return h
    rho = 1.0 / ys
    hy = h @ y
    scale = rho * rho * float(np.dot(y, hy)) + rho
    out = h - rho * (np.outer(s, hy) + np.outer(hy, s)) + scale * np.outer(s, s)
    return (out + out.T) / 2.0


@pytest.mark.parametrize("size", [6, 40, 88, 406, 800])
def test_update_inverse_hessian_chain_matches_allocating_formula(size):
    # 406 rows do not split into equal blocks, 800 do; every tenth pair
    # has negative curvature and must leave the matrix untouched. In the
    # second chain a third of the circles do not move in a step: their
    # entries of s and y are exact zeros of either sign, so the outer
    # products hold -0.0, which the update must not let into h
    rng = np.random.default_rng(size)
    for still in (False, True):
        h = np.eye(size)
        expected = np.eye(size)
        for k in range(30):
            s = rng.normal(size=size)
            y = s * rng.uniform(0.5, 2.0, size=size) + 0.1 * rng.normal(size=size)
            if still:
                circles = rng.choice(size // 2, size=max(1, size // 6), replace=False)
                for vec in (s, y):
                    vec.reshape(-1, 2)[circles] = rng.choice([0.0, -0.0], size=(circles.size, 2))
            if k % 10 == 9:
                y = -y
            expected = update_by_allocating_formula(expected, s, y)
            got = update_inverse_hessian(h, s, y)
            assert got is h
            assert got.tobytes() == expected.tobytes()
            assert np.array_equal(got, got.T)


def curvature_pairs(size, count, seed):
    """``count`` steps s and gradient changes y = A s of one random
    positive definite quadratic of dimension ``size``."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(size, size))
    a = m @ m.T / size + np.eye(size)
    steps = rng.normal(size=(count, size))
    return [(s, a @ s) for s in steps]


@pytest.mark.parametrize("count", [0, 1, 3, optimizer.LBFGS_MEMORY + 2])
def test_lbfgs_direction_matches_dense_update_chain(count):
    # the dense reference starts at gamma * I, gamma = s.y / y.y of the
    # newest pair, and takes the stored pairs oldest first
    size = 40
    memory = []
    for s, y in curvature_pairs(size, count, seed=count):
        lbfgs_push(memory, s, y)
    assert len(memory) == min(count, optimizer.LBFGS_MEMORY)
    h = np.eye(size)
    if memory:
        s, y, _ = memory[-1]
        h *= float(np.dot(s, y)) / float(np.dot(y, y))
    for s, y, _ in memory:
        h = update_inverse_hessian(h, s, y)
    g = np.random.default_rng(99).normal(size=size)
    got = lbfgs_direction(g, memory)
    np.testing.assert_allclose(got, h @ g, rtol=1e-12, atol=1e-12 * np.linalg.norm(h @ g))
    if not memory:
        assert got is not g and np.array_equal(got, g)


def test_lbfgs_push_drops_oldest_and_skips_flat_curvature():
    pairs = curvature_pairs(8, optimizer.LBFGS_MEMORY + 3, seed=5)
    memory = []
    for s, y in pairs:
        lbfgs_push(memory, s, y)
    assert [entry[0] for entry in memory] == [s for s, _ in pairs[3:]]
    assert all(rho == 1.0 / float(np.dot(y, s)) for s, y, rho in memory)
    kept = list(memory)
    s = np.ones(8)
    flat = np.array([1.0, -1.0] * 4)  # orthogonal to s: y.s = 0
    for y in (flat, -s, flat + 1e-13 * s):  # zero, negative, below the floor
        lbfgs_push(memory, s, y)
        assert memory == kept


@pytest.mark.parametrize("n", [optimizer.DENSE_MAX_CIRCLES, optimizer.DENSE_MAX_CIRCLES + 1])
def test_dense_update_up_to_paper_size_only(monkeypatch, n):
    updates = []
    real = optimizer.update_inverse_hessian

    def counted(h, s, y):
        updates.append(h.shape)
        return real(h, s, y)

    monkeypatch.setattr(optimizer, "update_inverse_hessian", counted)
    hessians = []
    layout = random_layout(n, 1.0 + math.sqrt(n / 0.72), Rng(n))
    outcome = bfgs_minimize(
        layout, max_iterations=3, callback=lambda state, rec: hessians.append(state.inv_hessian)
    )
    assert outcome.iterations == 3
    if n <= optimizer.DENSE_MAX_CIRCLES:
        assert updates == [(2 * n, 2 * n)] * 3
        assert all(h.shape == (2 * n, 2 * n) for h in hessians)
    else:
        assert updates == []
        assert hessians == [None] * 3


def test_lbfgs_restart_starts_from_empty_memory(monkeypatch):
    # the quasi-Newton search of the fifth step is made to fail; the
    # steepest-descent restart must leave only its own pair in memory
    n = optimizer.DENSE_MAX_CIRCLES + 1
    sizes = []
    real_direction = optimizer.lbfgs_direction
    real_search = optimizer.line_search
    searches = 0

    def direction(g, memory):
        sizes.append(len(memory))
        return real_direction(g, memory)

    def search(eval_fn, x, d, u0, slope, depth):
        nonlocal searches
        searches += 1
        if searches == 5:
            return 0.0, u0, None, 0
        return real_search(eval_fn, x, d, u0, slope, depth)

    monkeypatch.setattr(optimizer, "lbfgs_direction", direction)
    monkeypatch.setattr(optimizer, "line_search", search)
    restarts = []
    layout = random_layout(n, 1.0 + math.sqrt(n / 0.72), Rng(n))
    bfgs_minimize(layout, max_iterations=8, callback=lambda state, rec: restarts.append(rec.restarted))
    assert restarts == [False] * 4 + [True] + [False] * 3
    assert sizes == [0, 1, 2, 3, 4, 1, 2, 3]


def test_bfgs_trajectory_matches_allocating_update(monkeypatch):
    n = 60
    layout = random_layout(n, 1.0 + math.sqrt(n / 0.72), Rng(0))

    def descend():
        steps = []
        outcome = bfgs_minimize(
            layout, mode="local", rng=Rng(0),
            callback=lambda state, rec: steps.append(state.iterate.tobytes()),
        )
        return outcome, steps

    got, got_steps = descend()
    monkeypatch.setattr(optimizer, "update_inverse_hessian", update_by_allocating_formula)
    want, want_steps = descend()
    assert got_steps == want_steps
    assert got.status is want.status
    assert got.energy == want.energy
    assert got.layout.centers.tobytes() == want.layout.centers.tobytes()


def reset_by_copying_identity(h):
    h[...] = np.eye(h.shape[0])


def test_search_with_restarts_matches_allocating_update(monkeypatch):
    # the eager hop batch on a stuck n = 16 restart takes accepted
    # steepest-descent restarts in its settles (3 of 837 steps), so the
    # in-place reset to the identity shapes the steps after them
    descend = optimizer.bfgs_minimize

    def run():
        steps = []

        def recorded(*args, **kwargs):
            kwargs["callback"] = lambda state, rec: steps.append(
                (rec.restarted, state.iterate.tobytes())
            )
            return descend(*args, **kwargs)

        monkeypatch.setattr(optimizer, "bfgs_minimize", recorded)
        rng = Rng(0)
        radius = cp.load_best_known().radius_for(16)
        stuck = recorded(random_layout(16, radius, rng), rng=rng)
        batch = cp.basin_hop(stuck.layout, rng=rng)
        return stuck, batch, steps

    got, got_batch, got_steps = run()
    assert any(restarted for restarted, _ in got_steps)
    monkeypatch.setattr(optimizer, "update_inverse_hessian", update_by_allocating_formula)
    monkeypatch.setattr(optimizer, "_reset_to_identity", reset_by_copying_identity)
    want, want_batch, want_steps = run()
    assert got_steps == want_steps
    assert got.status is want.status
    assert got.layout.centers.tobytes() == want.layout.centers.tobytes()
    for a, b in zip(got_batch.layouts, want_batch.layouts):
        assert a.centers.tobytes() == b.centers.tobytes()


def descend_recorded(layout, **options):
    steps = []

    def record(state, rec):
        steps.append((state.iterate.tobytes(), rec.energy_after, rec.step_length, rec.restarted))

    outcome = bfgs_minimize(layout, callback=record, **options)
    return outcome, steps


def use_sequential_line_search(monkeypatch):
    monkeypatch.setattr(optimizer, "line_search", reference_line_search)
    monkeypatch.setattr(optimizer, "index_energy", reference_index_energy)


def test_bfgs_trajectory_matches_sequential_line_search(monkeypatch):
    n = 60
    layout = random_layout(n, 1.0 + math.sqrt(n / 0.72), Rng(0))
    got, got_steps = descend_recorded(layout, mode="local", rng=Rng(0))
    use_sequential_line_search(monkeypatch)
    want, want_steps = descend_recorded(layout, mode="local", rng=Rng(0))
    assert got_steps == want_steps
    assert (got.status, got.iterations, got.evaluations) == (
        want.status, want.iterations, want.evaluations
    )
    assert got.energy == want.energy
    assert got.layout.centers.tobytes() == want.layout.centers.tobytes()


def test_search_matches_sequential_line_search(monkeypatch):
    # n = 16 takes hop batches, whose settles run 50-100 step descents in
    # a shrunken container and stall in long backtracking tails
    descend = optimizer.bfgs_minimize

    def run():
        descents = []

        def recorded(*args, **kwargs):
            outcome, steps = descend_recorded(*args, **kwargs)
            descents.append((outcome.status, outcome.iterations, outcome.evaluations, steps))
            return outcome

        monkeypatch.setattr(optimizer, "bfgs_minimize", recorded)
        monkeypatch.setattr(search, "bfgs_minimize", recorded)
        report = cp.global_search(16, cp.load_best_known().radius_for(16), 600.0, Rng(0), max_restarts=8)
        return report, descents

    got, got_descents = run()
    assert got.hops >= 1
    use_sequential_line_search(monkeypatch)
    want, want_descents = run()
    assert got_descents == want_descents
    assert (got.status, got.restarts, got.hops) == (want.status, want.restarts, want.hops)
    assert got.layout.centers.tobytes() == want.layout.centers.tobytes()


def test_deep_start_changes_only_the_kernel_calls(monkeypatch):
    # a descent at the best-known radius of n = 12 jams: most of its line
    # searches accept at or before the halvings the previous one accepted
    # at, and each of those makes one kernel call before its polish.
    # Handing every search depth 0 instead must give the same steps and
    # outcome, bit for bit
    real = optimizer.line_search
    searches = []

    def counted(eval_fn, x, d, u0, slope, depth):
        calls = 0

        def kernel(origin, direction, steps, limits):
            nonlocal calls
            # the polish's candidates are one-step calls with no limit
            calls += not (isinstance(steps, float) and limits == math.inf)
            return eval_fn(origin, direction, steps, limits)

        found = real(kernel, x, d, u0, slope, depth)
        searches.append((depth, found[3] if found[0] > 0.0 else None, calls))
        return found

    def run():
        layout = random_layout(12, cp.load_best_known().radius_for(12), Rng(0))
        return descend_recorded(layout, rng=Rng(0))

    monkeypatch.setattr(optimizer, "line_search", counted)
    got, got_steps = run()
    monkeypatch.setattr(
        optimizer, "line_search", lambda eval_fn, x, d, u0, slope, depth: real(eval_fn, x, d, u0, slope)
    )
    want, want_steps = run()
    assert got_steps == want_steps
    assert (got.status, got.iterations, got.evaluations, got.energy) == (
        want.status, want.iterations, want.evaluations, want.energy
    )
    assert got.layout.centers.tobytes() == want.layout.centers.tobytes()
    near = [calls for depth, halvings, calls in searches if halvings is not None and halvings <= depth]
    assert near == [1] * len(near)
    # every step searches once, and a restarted one once more
    assert len(searches) == got.iterations + sum(step[3] for step in got_steps)
    assert 2 * len(near) > len(searches)


def jammed_12():
    # at the best-known radius of n = 12, Rng(0) jams: from step 59 on in
    # local mode and from step 83 on in full mode no step moves the
    # iterate. Full mode ends the run there; local mode searches on until
    # its rebuild at step 60 builds an index at that iterate, and step 61
    # ends it. Run to the stall window instead, each mode ends at step 149
    # with the layout and energy below
    return random_layout(12, cp.load_best_known().radius_for(12), Rng(0))


# per mode, the sha256 of the final centres and the exact energy of
# jammed_12()'s descent run to its stall window. The two modes sum their
# energies over different listings, so their last bits, and the layouts
# they jam in, differ
JAMMED_12 = {
    "local": ("14ddf212dc34b84c1475f72ddbe0e952fb22ff9df8f697bee9b4758411900e21",
              0.06374728943506107),
    "full": ("9e09afc881e3ebc8060c2b88dc9e707d3ee2a9577fa7aa9d4a1971d9b0b097dd",
             0.06374728943506111),
}


def recompute_step(x0, g0, inv_hessian, energy, restarted, start_index, end_index, radius):
    """One descent step recomputed: the line search on ``index_energy``
    over ``start_index`` from ``x0`` and ``g0`` along the quasi-Newton
    direction of ``inv_hessian``, or along -g0 for a restart, then
    ``gradient_eval`` on ``end_index``. Returns the step length, its
    value, the new point and the gradient there."""
    n = x0.size // 2
    direction = -g0 if restarted else -(inv_hessian @ g0)

    def kernel(origin, d, steps, limits):
        return neighbors.index_energy(origin, d, steps, limits, radius, start_index)

    lam, value, depths, _ = line_search(kernel, x0, direction, energy, float(np.dot(g0, direction)))
    point = x0 + lam * direction
    _, grad, centers = neighbors.gradient_eval(
        point.reshape(n, 2), radius, end_index, None, depths if end_index is start_index else None
    )
    assert point.tobytes() == centers.tobytes()
    return lam, value, point, grad


def recompute_still_steps(monkeypatch, layout, descend):
    """Run ``descend(layout, callback)`` with a callback that recomputes
    every step whose iterate did not change (see ``recompute_step``), from
    the previous step's iterate and gradient and the inverse Hessian in
    ``state`` (a step that stays put has s = 0, which the update skips),
    on the index the step started on and the one it ended on. Asserts that
    this gives the step's record and the bits of ``state``. Returns the
    descent's outcome, the records of the recomputed steps, the number of
    line searches the descent made and its last state and index."""
    radius = layout.radius
    builds = record_calls(monkeypatch, "_build_index_raw")
    searches = record_calls(monkeypatch, "line_search")
    previous = {}
    still = []

    def check(state, rec):
        x, g = state.iterate, state.gradient
        new_builds = len(builds) - previous.get("builds", 0)
        index = builds[-1] if builds else neighbors.full_index(x.size // 2)
        if previous and x.tobytes() == previous["x"].tobytes():
            # only a step's own rebuild, after its search, changes the index
            assert new_builds == 0 or rec.index_age == optimizer.REFRESH_PERIOD - 1
            lam, value, point, grad = recompute_step(
                previous["x"], previous["g"], state.inv_hessian, rec.energy_before,
                rec.restarted, previous["index"], index, radius,
            )
            assert same_bits(lam, rec.step_length)
            assert same_bits(value, rec.energy_after)
            assert point.tobytes() == x.tobytes()
            assert grad.tobytes() == g.tobytes()
            still.append(rec)
        previous.update(x=x.copy(), g=g.copy(), inv_hessian=state.inv_hessian.copy(),
                        index=index, builds=len(builds))

    outcome = descend(layout, check)
    return outcome, still, len(searches), previous


def assert_jammed_12_layout(outcome, mode):
    centers, energy = JAMMED_12[mode]
    assert outcome.status is OptimizeStatus.ITERATION_LIMIT
    assert hashlib.sha256(outcome.layout.centers.tobytes()).hexdigest() == centers
    assert outcome.energy.total == energy


@pytest.mark.parametrize("mode", ["local", "full"])
def test_frozen_step_ends_the_descent(monkeypatch, mode):
    # the first still step on an index built at its iterate ends the run
    # with the layout and energy of the run to the stall window
    first, steps = {"local": (59, 61), "full": (83, 83)}[mode]
    outcome, still, searches, last = recompute_still_steps(
        monkeypatch, jammed_12(),
        lambda layout, callback: bfgs_minimize(layout, mode=mode, rng=Rng(0), callback=callback),
    )
    assert_jammed_12_layout(outcome, mode)
    assert outcome.iterations == steps
    assert [rec.iteration for rec in still] == list(range(first, steps + 1))
    assert not any(rec.restarted for rec in still)
    # every step searches
    assert searches == outcome.iterations
    # one more step, on an index built at the final iterate, stays put
    x, radius = last["x"], outcome.layout.radius
    margins = (neighbors.DEFAULT_CONTAINER_MARGIN, neighbors.DEFAULT_PAIR_MARGIN)
    index = (
        neighbors.full_index(12) if mode == "full"
        else neighbors._build_index_raw(x.reshape(12, 2), radius, *margins)
    )
    # the descent steps on the index's energy, which need not have the bits
    # of the exact energy in outcome.energy
    energy = listed_energy(radius, index)(x)
    _, _, point, grad = recompute_step(
        x, last["g"], last["inv_hessian"], energy, False, index, index, radius
    )
    assert point.tobytes() == x.tobytes()
    assert grad.tobytes() == last["g"].tobytes()


def test_frozen_step_on_an_older_index_is_searched_again(monkeypatch):
    # local mode's index at step 59 was built at step 50's iterate, so the
    # still steps 59 and 60 search again; the rebuild at step 60 builds, at
    # the frozen iterate, and the step after it ends the run
    built = record_calls(monkeypatch, "_build_index_raw")
    ages = []
    outcome = bfgs_minimize(
        jammed_12(), rng=Rng(0), callback=lambda state, rec: ages.append(rec.index_age)
    )
    assert outcome.iterations == 61
    assert ages[58:] == [8, 9, 0]
    # the first build and one per refresh period: every rebuild builds
    assert len(built) == 1 + outcome.iterations // optimizer.REFRESH_PERIOD


def test_frozen_settle_ends_before_its_cap(monkeypatch):
    # a hop settle is run_bounded's capped descent: a frozen step ends it
    # before its budget of h = 120 steps, with the layout of the full run
    outcomes = record_calls(monkeypatch, "bfgs_minimize")
    layout = jammed_12()
    settled = run_bounded(layout, layout.radius, 120, Rng(0))
    assert_jammed_12_layout(outcomes[0], "local")
    assert outcomes[0].iterations == 61
    assert settled.centers.tobytes() == outcomes[0].layout.centers.tobytes()


def test_restarted_still_step_does_not_end_the_descent(monkeypatch):
    # at the best-known radius of n = 9, Rng(0) jams from step 77 on, and
    # step 81, the first still step on an index built at its iterate,
    # ends the run. Its quasi-Newton search is made to fail, and the
    # steepest-descent restart stays put too; a restart resets the inverse
    # Hessian, so it does not end the run, and the step after it does
    searches = 0

    def search(eval_fn, x, d, u0, slope, depth):
        nonlocal searches
        searches += 1
        if searches == 81:
            return 0.0, u0, None, 0
        return line_search(eval_fn, x, d, u0, slope, depth)

    monkeypatch.setattr(optimizer, "line_search", search)
    layout = random_layout(9, cp.load_best_known().radius_for(9), Rng(0))
    outcome, still, _, _ = recompute_still_steps(
        monkeypatch, layout,
        lambda layout, callback: bfgs_minimize(layout, rng=Rng(0), callback=callback),
    )
    assert [(rec.iteration, rec.restarted, rec.index_age) for rec in still[-2:]] == [
        (81, True, 0), (82, False, 1)
    ]
    assert (outcome.status, outcome.iterations) == (OptimizeStatus.ITERATION_LIMIT, 82)


def record_calls(monkeypatch, name, module=optimizer):
    """Replace ``module.<name>`` by a wrapper; returns the list of the
    results of its calls."""
    results = []
    real = getattr(module, name)

    def recorded(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, recorded)
    return results


def record_gradients(monkeypatch):
    """Wrap ``optimizer.gradient_eval``; returns one entry per call: the id
    of the ``depths`` it was handed (None for none) and how many
    ``listed_depths`` runs it made. Ids only, so no trial block is kept
    alive."""
    calls = []
    real = optimizer.gradient_eval
    real_listed = neighbors.listed_depths
    inside = False

    def listed(*args):
        if inside:
            calls[-1][1] += 1
        return real_listed(*args)

    def recorded(centers, radius, index, rng=None, depths=None):
        nonlocal inside
        calls.append([None if depths is None else id(depths), 0])
        inside = True
        try:
            return real(centers, radius, index, rng, depths)
        finally:
            inside = False

    monkeypatch.setattr(neighbors, "listed_depths", listed)
    monkeypatch.setattr(optimizer, "gradient_eval", recorded)
    return calls


def rebuilding_steps(layout, **options):
    """Run a descent; returns its outcome and how many of its accepted
    steps rebuilt the index (each step that brings the index to
    ``REFRESH_PERIOD`` accepted steps does)."""
    ages = []
    outcome = bfgs_minimize(
        layout, callback=lambda state, rec: ages.append(rec.index_age), **options
    )
    return outcome, ages.count(optimizer.REFRESH_PERIOD - 1)


def test_accepted_trials_supply_the_gradients(monkeypatch):
    # every gradient goes through gradient_eval: one call per accepted
    # step, plus one fresh evaluation at the start and after each rebuild
    # the convergence test asks for. A point is measured afresh only where
    # no trial on the current index exists: at the start and after each
    # rebuild. Full mode never rebuilds
    n = 60
    layout = random_layout(n, 1.0 + math.sqrt(n / 0.72), Rng(0))
    gradients = record_gradients(monkeypatch)
    builds = record_calls(monkeypatch, "_build_index_raw")
    local, step_rebuilds = rebuilding_steps(layout, mode="local", rng=Rng(0))
    rebuilds = len(builds) - 1
    assert local.iterations > 2 * optimizer.REFRESH_PERIOD and step_rebuilds >= 2
    assert len(gradients) == local.iterations + 1 + rebuilds - step_rebuilds
    fresh = [listed for handed, listed in gradients if handed is None]
    assert fresh == [1] * (1 + rebuilds)
    assert all(listed == 0 for handed, listed in gradients if handed is not None)
    gradients.clear()
    full, step_rebuilds = rebuilding_steps(layout, mode="full", rng=Rng(0))
    assert full.iterations > 2 * optimizer.REFRESH_PERIOD and step_rebuilds == 0
    assert len(gradients) == full.iterations + 1
    assert [listed for _, listed in gradients] == [1] + [0] * full.iterations


@pytest.mark.parametrize("mode", ["local", "full"])
def test_accepted_step_hands_over_the_kernel_depths(monkeypatch, mode):
    # the Depths object the trial kernel returned for the accepted point
    # reaches gradient_eval itself, not a copy; only a step that rebuilt
    # the index hands over None. Each step's kernel results and searches
    # are kept until its callback, so their ids stay unique
    n = 60
    layout = random_layout(n, 1.0 + math.sqrt(n / 0.72), Rng(0))
    kernel = record_calls(monkeypatch, "index_energy")
    searches = record_calls(monkeypatch, "line_search")
    gradients = record_gradients(monkeypatch)
    steps = []

    def record(state, rec):
        # the last gradient_eval call is this step's, the last successful
        # search the one that accepted it
        accepted = [found for found in searches if found[0] > 0.0][-1][2]
        assert any(found[2] is accepted for found in kernel)
        rebuilt = mode == "local" and rec.index_age == optimizer.REFRESH_PERIOD - 1
        assert gradients[-1][0] == (None if rebuilt else id(accepted))
        steps.append(rebuilt)
        kernel.clear()
        searches.clear()

    outcome = bfgs_minimize(layout, mode=mode, rng=Rng(0), callback=record)
    assert len(steps) == outcome.iterations > 2 * optimizer.REFRESH_PERIOD
    assert (sum(steps) >= 2) if mode == "local" else not any(steps)


def test_coincident_accepted_point_takes_the_nudge_path(monkeypatch):
    # circles at (-8, 0) and (8, 0) each cross the wall of radius 5 by 4,
    # so the first steepest-descent direction moves each by 8 toward the
    # other, and the unit step puts both centres on the origin. The line
    # search is made to accept that step unpolished. gradient_eval takes
    # the accepted trial's depths, which give no gradient, so it nudges
    # circle 1 and measures the nudged point
    def unit_step(eval_fn, x, d, u0, slope, depth):
        _, value, depths = eval_fn(x, d, 1.0, math.inf)
        return 1.0, value, depths, 0

    layout = Layout(np.array([[-8.0, 0.0], [8.0, 0.0]]), 5.0)
    monkeypatch.setattr(optimizer, "line_search", unit_step)
    gradients = record_gradients(monkeypatch)
    scatters = record_calls(monkeypatch, "scatter_gradient", neighbors)
    got, got_steps = descend_recorded(layout, mode="full", max_iterations=1, rng=Rng(0))
    assert [grad is None for grad in scatters] == [False, True, False]
    assert [(handed is None, listed) for handed, listed in gradients] == [(True, 1), (False, 1)]
    assert got_steps[0][1] == 8.0
    centers = np.frombuffer(got_steps[0][0]).reshape(2, 2)
    assert centers[0].tolist() == [0.0, 0.0]
    assert 0.0 < math.hypot(*centers[1]) < 2e-8
    # a kernel that hands back no depths measures every step afresh
    monkeypatch.setattr(optimizer, "index_energy", reference_index_energy)
    want, want_steps = descend_recorded(layout, mode="full", max_iterations=1, rng=Rng(0))
    assert got_steps == want_steps
    assert got.layout.centers.tobytes() == want.layout.centers.tobytes()


def test_bfgs_separates_two_overlapping_circles():
    layout = Layout(np.array([[-0.5, 0.0], [0.5, 0.0]]), 4.0)
    outcome = bfgs_minimize(layout)
    assert outcome.status is OptimizeStatus.FEASIBLE
    assert outcome.energy.total < FEASIBLE_ENERGY
    gap = np.linalg.norm(outcome.layout.centers[0] - outcome.layout.centers[1])
    assert gap >= 2.0 - 1e-9
    assert is_feasible(outcome.layout)


def test_bfgs_energy_field_is_exact_total():
    layout = random_layout(15, 4.0, Rng(3))
    outcome = bfgs_minimize(layout)
    assert outcome.energy == total_energy(outcome.layout)


def test_bfgs_never_claims_feasibility_when_stuck():
    # 8 circles cannot fit at R=3 (only 7 can); the optimizer must settle
    # at a positive-energy local minimum instead of claiming feasibility
    layout = random_layout(8, 3.0, Rng(12))
    outcome = bfgs_minimize(layout)
    assert outcome.status is not OptimizeStatus.FEASIBLE
    assert outcome.energy.total > FEASIBLE_ENERGY


def test_bfgs_stall_exit_cuts_off_jammed_run():
    # a jammed layout only drifts by cancellation noise; the stall window
    # must end the run long before the 5000-iteration default budget
    layout = random_layout(8, 3.0, Rng(12))
    outcome = bfgs_minimize(layout)
    assert outcome.status is OptimizeStatus.ITERATION_LIMIT
    assert outcome.iterations < 2000
    assert outcome.energy.total > FEASIBLE_ENERGY


def test_bfgs_gradient_convergence_on_shallow_jam():
    # two circles squeezed at R=1.9: the quadratic line-search refinement
    # lands on the force-balance point, so the gradient gate fires
    layout = random_layout(2, 1.9, Rng(12))
    outcome = bfgs_minimize(layout)
    assert outcome.status is OptimizeStatus.GRADIENT_CONVERGED
    assert outcome.energy.total > FEASIBLE_ENERGY


@pytest.mark.parametrize(
    "make, options, status, iterations",
    [
        # the circle sits beyond the wall margin, so the fresh index lists
        # nothing and reads energy 0
        (lambda: Layout(np.array([[5.0, 0.0]]), 3.0), {},
         OptimizeStatus.GRADIENT_CONVERGED, 0),
        # a stale index reads feasible at step 110 and the exact energy does
        # not; the rebuilt index still lists nothing left to descend on
        (lambda: random_layout(60, 1.0 + math.sqrt(60 / 0.84), Rng(9)), {"rng": Rng(9)},
         OptimizeStatus.GRADIENT_CONVERGED, 110),
        # a stale index reads feasible at step 7; after the rebuild one more
        # step is taken, so the exact energy from step 7 must not be reported
        (lambda: random_layout(12, 1.0 + math.sqrt(12 / 0.72), Rng(7)),
         {"rng": Rng(7), "max_iterations": 8}, OptimizeStatus.ITERATION_LIMIT, 8),
        (lambda: random_layout(8, 3.0, Rng(12)), {}, OptimizeStatus.ITERATION_LIMIT, 125),
    ],
    ids=["escaped-fresh-index", "stale-index-converged", "limit-after-rebuild", "stall"],
)
def test_bfgs_exit_reports_exact_energy(make, options, status, iterations):
    outcome = bfgs_minimize(make(), **options)
    assert (outcome.status, outcome.iterations) == (status, iterations)
    assert outcome.energy == total_energy(outcome.layout)
    assert (outcome.status is OptimizeStatus.FEASIBLE) == (
        outcome.energy.total < FEASIBLE_ENERGY
    )


def test_bfgs_iteration_limit():
    layout = random_layout(20, 5.0, Rng(5))
    outcome = bfgs_minimize(layout, max_iterations=2)
    assert outcome.iterations <= 2
    if outcome.status is OptimizeStatus.ITERATION_LIMIT:
        assert outcome.iterations == 2


def test_bfgs_monotone_energy_per_step():
    layout = random_layout(18, 4.5, Rng(9))
    records = []
    bfgs_minimize(layout, callback=lambda state, rec: records.append(rec))
    assert records, "expected at least one iteration"
    for rec in records:
        # each accepted step cannot increase the energy under its own index
        assert rec.energy_after <= rec.energy_before
        assert rec.step_length >= 0.0


def index_ages(layout, **options):
    ages = []
    bfgs_minimize(layout, callback=lambda state, rec: ages.append(rec.index_age), **options)
    return ages


def test_index_age_counts_steps_since_rebuild():
    # local mode rebuilds every REFRESH_PERIOD steps, and the age a step
    # reports is the number of steps taken on its index before it; below
    # the best-known radius 6.197 of n = 30 the descent takes all 40 steps
    layout = random_layout(30, 5.9, Rng(4))
    ages = index_ages(layout, max_iterations=40)
    assert ages == [k % optimizer.REFRESH_PERIOD for k in range(40)]
    # a full index, or one whose infinite margins list every term, never ages
    assert set(index_ages(layout, mode="full", max_iterations=40)) == {0}
    assert set(
        index_ages(
            layout, container_margin=math.inf, pair_margin=math.inf, max_iterations=40
        )
    ) == {0}


def test_bfgs_deterministic():
    layout = random_layout(12, 4.0, Rng(8))
    a = bfgs_minimize(layout)
    b = bfgs_minimize(layout)
    assert a.status == b.status
    assert a.energy == b.energy
    assert np.array_equal(a.layout.centers, b.layout.centers)


def test_full_and_local_agree_with_infinite_margins():
    # small copy of the bit-exactness contract checked at scale by the
    # acceptance suite, once with the dense inverse Hessian and once with
    # limited-memory BFGS
    n = optimizer.DENSE_MAX_CIRCLES + 1
    for layout, steps in (
        (random_layout(25, 5.0, Rng(4)), 30),
        (random_layout(n, 1.0 + math.sqrt(n / 0.72), Rng(n)), 12),
    ):
        full_states = []
        local_states = []
        bfgs_minimize(
            layout, mode="full", max_iterations=steps,
            callback=lambda st, rec: full_states.append(st.iterate.tobytes()),
        )
        bfgs_minimize(
            layout, mode="local", max_iterations=steps,
            container_margin=math.inf, pair_margin=math.inf,
            callback=lambda st, rec: local_states.append(st.iterate.tobytes()),
        )
        assert len(full_states) == steps
        assert full_states == local_states


def test_local_mode_finds_same_quality_as_full():
    layout = random_layout(30, 6.5, Rng(6))
    full = bfgs_minimize(layout, mode="full")
    local = bfgs_minimize(layout, mode="local")
    assert full.status is OptimizeStatus.FEASIBLE
    assert local.status is OptimizeStatus.FEASIBLE


def test_bfgs_rejects_unknown_mode():
    layout = random_layout(3, 3.0, Rng(0))
    # exactly "full" and "local": the mode is not normalised
    for mode in ("turbo", "FULL"):
        with pytest.raises(ValueError, match="mode"):
            bfgs_minimize(layout, mode=mode)


@pytest.mark.parametrize(
    "setting",
    [
        {"container_margin": -3.0},
        {"pair_margin": -1.5},
        {"container_margin": math.nan},
        {"pair_margin": math.nan},
        {"max_iterations": math.nan},
    ],
    ids=[
        "negative-container", "negative-pair", "nan-container", "nan-pair",
        "nan-iterations",
    ],
)
def test_bfgs_rejects_bad_margins(setting):
    # a negative or NaN margin lists too few terms (NaN lists none), so the
    # descent would stop early and report a false GRADIENT_CONVERGED
    layout = random_layout(20, 4.5, Rng(1))
    with pytest.raises(ValueError):
        bfgs_minimize(layout, **setting)


@pytest.mark.parametrize("h", [0, -1])
def test_run_bounded_rejects_budget_below_one(h):
    # the budget is checked once, by bfgs_minimize
    layout = random_layout(5, 3.0, Rng(2))
    with pytest.raises(ValueError, match="max_iterations"):
        run_bounded(layout, 2.5, h)


def test_run_bounded_respects_iteration_cap():
    layout = random_layout(10, 3.5, Rng(1))
    result = run_bounded(layout, 3.0, 7)
    assert result.radius == 3.0
    # a brief bounded run must still make progress on the shrunken container
    before = total_energy(Layout(layout.centers, 3.0)).total
    after = total_energy(result).total
    assert after <= before
