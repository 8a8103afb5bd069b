import math
from collections import deque
from typing import get_args

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _states import fock_projector, states
from thermalmimic import tomo
from thermalmimic.fock import (
    FockDensityMatrix,
    coherent_states,
    mean_photon,
    mix,
    thermal,
)
from thermalmimic.homodyne import (
    Convention,
    QuadratureDataset,
    calibrate,
    fock_wavefunctions,
    sample,
    simulate_raw,
)
from thermalmimic.metrics import fidelity, trace_distance
from thermalmimic.mimic import CodebookSpec, assemble, build_codebook
from thermalmimic.tomo import (
    LIKELIHOOD_FLOOR,
    MleConfig,
    _certified,
    _record_probabilities,
    _trial,
    log_likelihood,
    measurement_matrix,
    mle_reconstruct,
    reconstruct_ensemble,
)

PHASES_50 = 2.0 * math.pi * np.arange(50) / 50
#: Each convention's factor onto the half axis, sqrt(0.5 / vacuum variance), written out.
HALF_AXIS = {"half": 1.0, "quarter": math.sqrt(2.0)}


def complex_record_vectors(data, cutoff):
    # d_kn = f_n(x_k) exp(i n theta_k): record k's quadrature eigenvector,
    # whose projector Pi_k has entries d_km conj(d_kn).
    phases = np.exp(1j * np.outer(np.arange(cutoff + 1), data.theta))
    return (fock_wavefunctions(data.x, cutoff) * phases).T


def complex_probabilities(rho_entries, d):
    # p_k = Re d_k^H rho d_k, clipped like the likelihood
    q = np.conj(d @ rho_entries.T) * d
    return np.clip(q.sum(axis=-1).real, LIKELIHOOD_FLOOR, None)


def complex_gradient(rho_entries, d):
    # R = (1/K) sum_k Pi_k / p_k from the complex projectors
    r = (d / complex_probabilities(rho_entries, d)[:, None]).T @ d.conj() / d.shape[0]
    return 0.5 * (r + r.conj().T)


def complex_gap(r, d):
    # K (lambda_max(R) - 1), the bound on ll* - ll(rho) in nats
    return d.shape[0] * (np.linalg.eigvalsh(r)[-1] - 1.0)


def complex_reference_mle(data, cutoff, stop_gap):
    """The R-rho-R fixed point with R built from the complex projectors,
    independent of the real record map, run until its optimality gap
    K (lambda_max(R) - 1) is at most ``stop_gap`` nats."""
    d = complex_record_vectors(data, cutoff)
    rho = np.eye(cutoff + 1, dtype=complex) / (cutoff + 1)
    for _ in range(5000):
        r = complex_gradient(rho, d)
        if complex_gap(r, d) <= stop_gap:
            return rho
        rho = r @ rho @ r
        rho = 0.5 * (rho + rho.conj().T) / rho.trace().real
    raise AssertionError(f"the reference iteration stopped short of a {stop_gap}-nat gap")


# ---------------------------------------------------------------------------
# measurement_matrix
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_measurement_matrix_is_the_packed_projector(data):
    cutoff = data.draw(st.integers(0, 7), label="cutoff")
    count = data.draw(st.integers(1, 6), label="K")
    x = data.draw(arrays(float, count, elements=st.floats(-4.0, 4.0)), label="x")
    theta = data.draw(arrays(float, count, elements=st.floats(0.0, 2.0 * math.pi,
                                                              exclude_max=True)), label="theta")
    convention = data.draw(st.sampled_from(get_args(Convention)), label="convention")
    dim = cutoff + 1
    raw = data.draw(arrays(complex, (dim, dim), elements=st.complex_numbers(max_magnitude=1.0)),
                    label="raw")
    p = data.draw(arrays(float, count, elements=st.floats(0.1, 2.0)), label="p")
    h = raw + raw.conj().T

    records = measurement_matrix(QuadratureDataset(x, theta, convention), cutoff)
    # at most 6 records, too few for a run of 20: the packed map, one block over all dim^2 slots
    assert records.products.shape == (1, dim * dim, count)
    assert records.products.flags.c_contiguous
    assert np.array_equal(records.slots, np.arange(dim * dim))
    # complex oracle: d_kn = f_n(x_k) e^{i n theta_k}, x_k read on the half
    # axis (vacuum variance 1/2), projector Pi_k = d_k d_k^H
    half = x * HALF_AXIS[convention]
    d = fock_wavefunctions(half, cutoff).T * np.exp(1j * np.outer(theta, np.arange(dim)))
    expectations = np.einsum("km,mn,kn->k", d.conj(), h, d).real
    gradient = np.einsum("k,km,kn->mn", 1.0 / p, d, d.conj()) / count
    assert np.allclose(records.probabilities(h), expectations, rtol=0, atol=1e-12)
    assert np.allclose(records.gradient(p), gradient, rtol=0, atol=1e-12)
    # any memory layout of h reads the same slots, bit for bit
    read_only = h.view()
    read_only.setflags(write=False)
    for layout in (np.asfortranarray(h), read_only):
        assert np.array_equal(records.probabilities(layout).view(np.int64),
                              records.probabilities(h).view(np.int64))


@pytest.mark.parametrize("repeated", [True, False], ids=["repeated-phases", "distinct-phases"])
def test_packed_map_equals_a_per_record_evaluation_bit_for_bit(repeated):
    # the packed map takes each distinct phase's trig rows once and gathers
    # them to the records; its products are 2 cos(k theta_k) f_m f_n and
    # 2 sin(k theta_k) f_m f_n of each record bit for bit, on 100 phases held
    # by 10 records each in shuffled order and on 1000 distinct phases
    rng = np.random.default_rng(12)
    cutoff, count = 12, 1000
    dim = cutoff + 1
    if repeated:
        theta = rng.permutation(np.repeat(2.0 * math.pi * np.arange(100) / 100, 10))
    else:
        theta = rng.uniform(0.0, 2.0 * math.pi, count)
    x = rng.normal(size=count)
    records = measurement_matrix(QuadratureDataset(x, theta, "half"), cutoff)
    assert records.products.shape == (1, dim * dim, count)
    f = fock_wavefunctions(x, cutoff)
    expected = np.empty((dim, dim, count))
    for m in range(dim):
        for n in range(dim):
            product, k = f[min(m, n)] * f[max(m, n)], abs(n - m)
            trig = 1.0 if m == n else 2.0 * (np.cos if m < n else np.sin)(k * theta)
            expected[m, n] = trig * product
    assert np.array_equal(records.products.reshape(dim, dim, count), expected)


# ---------------------------------------------------------------------------
# log_likelihood
# ---------------------------------------------------------------------------


def test_likelihood_prefers_the_true_state():
    data = sample(thermal(0.0, 10), PHASES_50, 40, [1])[0]
    assert log_likelihood(fock_projector(0, 8), data) > log_likelihood(fock_projector(1, 8), data)


def test_single_record_at_origin_against_vacuum():
    data = QuadratureDataset(np.array([0.0]), np.array([0.0]), "half")
    assert log_likelihood(fock_projector(0, 5), data) == pytest.approx(
        math.log(1.0 / math.sqrt(math.pi)), abs=1e-12
    )


def test_likelihood_of_diagonal_state_ignores_global_phase_shift():
    rho = thermal(1.0, 12, tail_tol=1e-3)
    data = sample(thermal(1.0, 30), PHASES_50, 20, [2])[0]
    shifted = QuadratureDataset(
        data.x, np.mod(data.theta + 0.77, 2.0 * math.pi), "half"
    )
    assert log_likelihood(rho, data) == pytest.approx(log_likelihood(rho, shifted), abs=1e-9)


def test_quarter_dataset_reads_like_its_half_twin():
    raw = simulate_raw(thermal(1.0, 30), PHASES_50[::5], 20, 2.5, 0.3, [3])[0]
    quarter = calibrate(raw, "quarter")
    half = QuadratureDataset(quarter.x * math.sqrt(2.0), quarter.theta, "half")
    rho = thermal(1.0, 6, tail_tol=0.05)
    assert log_likelihood(rho, quarter) == log_likelihood(rho, half)
    config = MleConfig(cutoff=6)
    a, b = mle_reconstruct(quarter, config), mle_reconstruct(half, config)
    assert np.array_equal(a.rho.entries, b.rho.entries)
    assert (a.iterations, a.optimality_gap) == (b.iterations, b.optimality_gap)


# ---------------------------------------------------------------------------
# mle_reconstruct
# ---------------------------------------------------------------------------


def test_vacuum_reconstruction_is_nearly_pure():
    # The converged estimate tracks the draw's sample-variance fluctuation, so
    # a ~1% mass leak to n >= 1 is inherent at K = 2000. Over seeds 1-20 of
    # the per-phase sampler, F read median 0.9922, sd 0.0076, min 0.9714; the
    # floor is min - 2 sd rounded down to two decimals.
    data = sample(thermal(0.0, 10), PHASES_50, 40, [4])[0]
    result = mle_reconstruct(data, MleConfig(cutoff=8))
    assert result.converged
    assert fidelity(result.rho, fock_projector(0, 8)) >= 0.95


def test_every_iterate_is_a_valid_density_matrix():
    data = sample(thermal(1.0, 30), PHASES_50, 12, [5])[0]
    for cap in (1, 3, 10):
        partial = mle_reconstruct(data, MleConfig(cutoff=10, max_iterations=cap))
        rho = partial.rho  # construction itself validates Hermiticity and PSD
        assert not partial.converged
        assert partial.iterations == cap
        assert rho.trace == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(rho.entries - rho.entries.conj().T)) <= 1e-10
        assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-10


def test_log_likelihood_is_monotone_along_the_iteration():
    data = sample(thermal(1.0, 30), PHASES_50, 20, [6])[0]
    result = mle_reconstruct(data, MleConfig(cutoff=10))
    steps = np.diff(result.log_likelihoods)
    assert steps.min() >= -1e-8
    assert result.log_likelihoods[-1] > result.log_likelihoods[0]
    # the last history entry belongs to the returned iterate; near convergence
    # a step gains ~1e-6 nats, so a relative tolerance could not tell them apart
    assert result.final_log_likelihood == pytest.approx(
        log_likelihood(result.rho, data), rel=0.0, abs=1e-9
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    source_cutoff=st.integers(0, 8),
    rank=st.integers(1, 3),
    phases=st.integers(1, 12),
    per_phase=st.integers(1, 25),
    cutoff=st.integers(0, 6),
    max_iterations=st.integers(1, 300),
    stop_tol=st.sampled_from([0.1, 1e-3, 1e-6]),
)
def test_mle_invariants_hold_on_random_sources(
    seed, source_cutoff, rank, phases, per_phase, cutoff, max_iterations, stop_tol
):
    rng = np.random.default_rng(seed)
    factor = rng.normal(size=(source_cutoff + 1, rank)) + 1j * rng.normal(
        size=(source_cutoff + 1, rank))
    entries = factor @ factor.conj().T
    source = FockDensityMatrix(source_cutoff, entries / entries.trace().real, trace_tol=1e-9)
    data = sample(source, 2.0 * math.pi * np.arange(phases) / phases, per_phase, [seed])[0]
    config = MleConfig(cutoff=cutoff, max_iterations=max_iterations, stop_tol=stop_tol)
    result = mle_reconstruct(data, config)
    rho = result.rho  # construction itself validates trace, Hermiticity and PSD
    assert isinstance(rho, FockDensityMatrix) and rho.cutoff == cutoff
    assert np.diff(result.log_likelihoods).min(initial=0.0) >= -1e-8
    assert result.optimality_gap >= -1e-9
    assert not result.converged or result.optimality_gap <= stop_tol


def test_optimality_gap_bounds_the_likelihood_distance():
    data = sample(thermal(1.0, 30), PHASES_50, 20, [12])[0]
    default = mle_reconstruct(data, MleConfig(cutoff=10))
    tight = mle_reconstruct(data, MleConfig(cutoff=10, stop_tol=1e-9))
    assert default.converged and tight.converged
    assert tight.optimality_gap <= 1e-9
    assert tight.final_log_likelihood - default.final_log_likelihood <= (
        default.optimality_gap + 1e-9)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_certified_gap_bounds_the_distance_to_a_tight_fit_on_random_sources(data):
    # ll(fit) <= ll* <= ll(default) + its gap, whether or not the tight fit converged
    source = data.draw(st.integers(0, 8).flatmap(states), label="source")
    phases = data.draw(st.integers(1, 12), label="phases")
    per_phase = data.draw(st.integers(1, 25), label="per_phase")
    cutoff = data.draw(st.integers(0, 6), label="cutoff")
    seed = data.draw(st.integers(0, 2**32 - 1), label="data seed")
    records = sample(source, 2.0 * math.pi * np.arange(phases) / phases, per_phase, [seed])[0]
    default = mle_reconstruct(records, MleConfig(cutoff=cutoff))
    tight = mle_reconstruct(records, MleConfig(cutoff=cutoff, stop_tol=1e-9))
    assert tight.final_log_likelihood - default.final_log_likelihood <= (
        default.optimality_gap + 1e-9)
    assert default.final_log_likelihood - tight.final_log_likelihood <= (
        tight.optimality_gap + 1e-9)


def test_coherent_state_at_nonzero_phase_is_recovered():
    # A state that is not phase-invariant pins the sign of theta in the
    # measurement rows to the one homodyne.sample draws with: a slip
    # (theta -> -theta) reconstructs the conjugate amplitude, at fidelity
    # exp(-|alpha - conj(alpha)|^2) = exp(-3) for this alpha.
    alpha = [1.0], [math.pi / 3]  # magnitude, phase
    data = sample(mix([1.0], coherent_states(*alpha, 30)), PHASES_50, 40, [7])[0]
    result = mle_reconstruct(data, MleConfig(cutoff=10))
    assert result.converged
    assert fidelity(result.rho, mix([1.0], coherent_states(*alpha, 10))) >= 0.99


def test_mle_gradient_and_optimum_match_the_complex_reference():
    # A coherent part at a non-real amplitude gives rho and R imaginary
    # off-diagonals, so a wrong sign or scale in unpacking R from the real
    # record map changes the gradient, the steps and the certified gap.
    coherent = mix([1.0], coherent_states([1.0], [math.pi / 3], 30)).entries
    source = FockDensityMatrix(30, 0.6 * coherent + 0.4 * thermal(0.5, 30).entries,
                               trace_tol=1e-9)
    data = sample(source, PHASES_50, 20, [11])[0]
    config = MleConfig(cutoff=10)
    result = mle_reconstruct(data, config)
    assert result.converged
    d = complex_record_vectors(data, config.cutoff)
    records = measurement_matrix(data, config.cutoff)
    # before any step the momentum point is the iterate, so the gap is the
    # complex reference's K (lambda_max(R(rho)) - 1) at the maximally mixed state
    start = mle_reconstruct(data, MleConfig(cutoff=10, stop_tol=1e12))
    assert start.iterations == 0
    assert np.array_equal(start.rho.entries, np.eye(11) / 11)
    assert start.optimality_gap == pytest.approx(
        complex_gap(complex_gradient(start.rho.entries, d), d), rel=0.0, abs=1e-8)
    # every returned gap, taken at a momentum point or not, bounds ll* - ll(rho)
    oracle = np.sum(np.log(complex_probabilities(
        complex_reference_mle(data, config.cutoff, stop_gap=1e-6), d)))
    for cap in (1, result.iterations // 2, result.iterations):
        partial = mle_reconstruct(data, MleConfig(cutoff=10, max_iterations=cap))
        rho = partial.rho.entries
        r = records.gradient(_record_probabilities(rho, records))
        assert np.max(np.abs(r - complex_gradient(rho, d))) <= 1e-12
        assert oracle - partial.final_log_likelihood <= partial.optimality_gap + 1e-9
    assert log_likelihood(result.rho, data) == pytest.approx(
        np.sum(np.log(complex_probabilities(result.rho.entries, d))), rel=0.0, abs=1e-9)


def thermal_records():
    # tomo-thermal's record set: thermal light at nbar 1.35, 50 phases x 40
    return sample(thermal(1.35, 30), PHASES_50, 40, [1])[0], MleConfig(cutoff=12)


def artificial_raw_records():
    # the raw path of the artificial 8 x 8 source: 100 phases x 10, quarter units
    source = assemble(build_codebook(CodebookSpec(1.35, 8, 8)), 20)
    grid = 2.0 * math.pi * np.arange(100) / 100
    raw = simulate_raw(source, grid, 10, 2.5, 0.3, [1])[0]
    return calibrate(raw, "quarter"), MleConfig(cutoff=12)


def coherent_records():
    # the nonzero-phase coherent state of the recovery test above
    state = mix([1.0], coherent_states([1.0], [math.pi / 3], 30))
    return sample(state, PHASES_50, 40, [7])[0], MleConfig(cutoff=10)


def shuffled(data):
    # the same records in random order: no runs at one phase, so the packed map
    order = np.random.default_rng(0).permutation(data.count)
    return QuadratureDataset(data.x[order], data.theta[order], data.convention), order


def solver_terms(t, rho, r, d):
    # a direction's two gain terms as mle_reconstruct forms them: the linear one
    # as ||T||^2 times the slope <g, d>, with ||T||^2 and the gradient g taken as
    # its evaluate takes them, and the quadratic one <R d, d> - Tr(R rho) <d, d>
    traced, tau = tomo._inner(rho, r), tomo._inner(t, t)
    g = (2.0 / tau) * (r @ t - traced * t)
    return tau * tomo._inner(g, d), tomo._inner(r @ d, d) - traced * tomo._inner(d, d)


@pytest.mark.parametrize("shuffle, blocks", [(False, 50), (True, 1)], ids=["blocks", "packed"])
def test_step_gain_is_the_log_likelihood_change(shuffle, blocks):
    # The line search reads ll/K(rho') - ll/K(rho) as Tr(R (rho' - rho)) plus
    # mean(log1p(u) - u), with rho' - rho taken from T, d and the step through
    # the direction's two terms, formed as the solver forms them; at coarse steps,
    # where a difference of log sums has no cancellation to lose, it must equal
    # that difference.
    data, config = thermal_records()
    if shuffle:
        data, _ = shuffled(data)
    records = measurement_matrix(data, config.cutoff)
    assert records.products.shape[0] == blocks
    rng = np.random.default_rng(3)
    dim = config.cutoff + 1
    for _ in range(3):
        t, d = (rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))) / dim
        rho = t @ t.conj().T / np.vdot(t, t).real
        p = _record_probabilities(rho, records)
        r = records.gradient(p)
        linear, quadratic = solver_terms(t, rho, r, d)
        for step in (2.0, 1.0, 0.3, 0.05):
            gain, t_new, rho_new, p_new = _trial(records, t, p, d, step, linear, quadratic)
            assert np.array_equal(t_new, t + step * d)
            assert np.allclose(rho_new, t_new @ t_new.conj().T / np.vdot(t_new, t_new).real,
                               rtol=0, atol=1e-15)
            assert np.array_equal(p_new, _record_probabilities(rho_new, records))
            assert gain == pytest.approx(np.sum(np.log(p_new / p)) / data.count,
                                         rel=0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_linear_gain_term_is_the_norm_times_the_slope(data):
    # The solver takes a direction's linear gain term 2 (<R T, d> - Tr(R rho) <T, d>)
    # as ||T||^2 <g, d>, g = 2 (R T - Tr(R rho) T) / ||T||^2: on either record-map
    # layout, at random T, d and source states, the two agree within 1e-12 of the
    # size ||d|| (||R T|| + |Tr(R rho)| ||T||) at which the inner products round.
    cutoff = data.draw(st.integers(0, 6), label="cutoff")
    dim = cutoff + 1
    source = data.draw(st.integers(0, 8).flatmap(states), label="source")
    phases = data.draw(st.integers(2, 12), label="phases")
    per_phase = data.draw(st.integers(max(dim, 20), 40), label="per_phase")
    packed = data.draw(st.booleans(), label="packed")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    records = sample(source, 2.0 * math.pi * np.arange(phases) / phases, per_phase, [seed])[0]
    if packed:
        records, _ = shuffled(records)
    record_map = measurement_matrix(records, cutoff)
    assert record_map.products.shape[:2] == ((1, dim * dim) if packed
                                             else (phases, dim * (dim + 1) // 2))
    rng = np.random.default_rng(seed)
    t, d = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
    d *= 10.0 ** data.draw(st.integers(-6, 3), label="log10 |d|")
    rho = t @ t.conj().T / tomo._inner(t, t)
    r = record_map.gradient(_record_probabilities(rho, record_map))
    linear, _ = solver_terms(t, rho, r, d)
    traced = tomo._inner(rho, r)
    rt_d, t_d = tomo._inner(r @ t, d), traced * tomo._inner(t, d)
    size = np.linalg.norm(d) * (np.linalg.norm(r @ t) + abs(traced) * np.linalg.norm(t))
    assert abs(linear - 2.0 * (rt_d - t_d)) <= 1e-12 * 2.0 * size


def reference_trial(records, t, rho, p, r, d, step):
    # every term of the gain formed afresh at each trial, the mean by np.mean
    t_new = t + step * d
    tau = tomo._inner(t_new, t_new)
    rho_new = (t_new @ t_new.conj().T) / tau
    p_new = _record_probabilities(rho_new, records)
    linear, quadratic = solver_terms(t, rho, r, d)
    u = (p_new - p) / p
    gain = (step * linear + step * step * quadratic) / tau + float(np.mean(np.log1p(u) - u))
    return gain, t_new, rho_new, p_new


def failing(trial, step_at, fails):
    """``trial`` with the gain of every trial of the n-th direction reported as
    ``-inf`` where ``fails(n)``. Directions count from 1, each opened by its unit
    first step, which ``trial`` takes as argument ``step_at``."""
    opened = 0

    def wrapped(*args):
        nonlocal opened
        opened += args[step_at] == 1.0
        gain, *rest = trial(*args)
        return (-math.inf if fails(opened) else gain, *rest)
    return wrapped


#: Injected line-search failures: every trial of the 3rd direction, which the
#: solver retries from steepest ascent, and of every direction from the 6th on,
#: which fails the retry too and ends the run.
RETRIED, FAILED = (lambda n: n == 3), (lambda n: n >= 6)


def reference_mle(data, config, trial=reference_trial):
    """The L-BFGS loop with the gap taken by ``eigvalsh`` after every iteration and
    the stop read from it, and ``trial`` (:func:`reference_trial`) as its line
    search: the arithmetic :func:`mle_reconstruct` must reproduce bit for bit.
    Returns the result's fields and the gain of every trial step."""
    dim = config.cutoff + 1
    records = measurement_matrix(data, config.cutoff)

    def evaluate(t, rho, p):
        r = records.gradient(p)
        g = (2.0 / tomo._inner(t, t)) * (r @ t - tomo._inner(rho, r) * t)
        return r, g, data.count * (float(np.linalg.eigvalsh(r)[-1]) - 1.0)

    t = np.eye(dim, dtype=np.complex128) / math.sqrt(dim)
    rho = np.eye(dim, dtype=np.complex128) / dim
    p = _record_probabilities(rho, records)
    history = [float(np.log(p).sum())]
    r, g, bound = evaluate(t, rho, p)
    memory = deque(maxlen=tomo.MEMORY)
    iterations, gains = 0, []
    while bound > config.stop_tol and iterations < config.max_iterations:
        d = tomo._direction(g, memory) if memory else g
        if not memory or not tomo._inner(g, d) > 0.0:
            memory.clear()
            d = g / math.sqrt(tomo._inner(g, g))
        step = 1.0
        for _ in range(tomo.MAX_HALVINGS + 1):
            gain, t_new, rho_new, p_new = trial(records, t, rho, p, r, d, step)
            gains.append(gain)
            if gain >= tomo.ARMIJO * step * tomo._inner(g, d):
                break
            step *= 0.5
        else:
            if memory:
                memory.clear()
                continue
            break
        iterations += 1
        r, g_new, bound = evaluate(t_new, rho_new, p_new)
        s, y = step * d, g - g_new
        if tomo._inner(s, y) > 0.0:
            memory.append((s, y, 1.0 / tomo._inner(s, y)))
        t, rho, p, g = t_new, rho_new, p_new, g_new
        history.append(float(np.log(p).sum()))
    return 0.5 * (rho + rho.conj().T), bound <= config.stop_tol, iterations, bound, history, gains


@pytest.mark.parametrize("records, stop_tol, max_iterations, fails, converges", [
    (thermal_records, 0.1, 2000, None, True), (thermal_records, 1e-9, 2000, None, True),
    (artificial_raw_records, 0.1, 2000, None, True),
    (artificial_raw_records, 1e-9, 2000, None, True),
    (coherent_records, 0.1, 2000, None, True), (coherent_records, 1e-9, 2000, None, True),
    (thermal_records, 0.1, 20, None, False), (thermal_records, 0.1, 2000, RETRIED, True),
    (thermal_records, 0.1, 2000, FAILED, False)],
    ids=["thermal", "thermal-1e-9", "artificial-raw", "artificial-raw-1e-9", "coherent",
         "coherent-1e-9", "thermal-capped", "thermal-retried", "thermal-line-search-failed"])
def test_solver_reproduces_the_reference_loop_bit_for_bit(records, stop_tol, max_iterations,
                                                          fails, converges, monkeypatch):
    # one Cholesky per iteration decides the stop, one eigvalsh reports the gap
    # and each direction forms its gain terms once: no output may move by a bit,
    # on any exit. The gains are pinned too: Tr(R rho) is 1 to rounding, so a
    # term that drops it moves a gain's last bits but rarely an Armijo decision.
    data, config = records()
    config = MleConfig(cutoff=config.cutoff, max_iterations=max_iterations, stop_tol=stop_tol)
    trial, reference, gains = tomo._trial, reference_trial, []
    if fails:
        trial, reference = failing(trial, 4, fails), failing(reference, 6, fails)

    def recording_trial(*args):
        outcome = trial(*args)
        gains.append(outcome[0])
        return outcome

    monkeypatch.setattr(tomo, "_trial", recording_trial)
    result = mle_reconstruct(data, config)
    rho, converged, iterations, bound, history, reference_gains = reference_mle(data, config,
                                                                                reference)
    assert converged == converges
    assert np.array_equal(result.rho.entries, rho)
    assert np.array_equal(result.log_likelihoods, history)
    assert result.iterations == iterations
    assert result.optimality_gap == bound
    assert result.converged == converged
    assert np.array_equal(gains, reference_gains)


@pytest.mark.parametrize("fails, converges, iterations, gap",
                         [(RETRIED, True, 27, 0.0601), (FAILED, False, 5, 19.55)],
                         ids=["retried", "failed"])
def test_a_failed_line_search_is_retried_once_from_steepest_ascent(fails, converges,
                                                                   iterations, gap, monkeypatch):
    # an L-BFGS direction whose every trial fails is retried from steepest ascent;
    # a failed retry ends the run unconverged, with one history entry per accepted
    # iterate and the eigenvalue gap of the last one
    data, config = thermal_records()
    monkeypatch.setattr(tomo, "_trial", failing(tomo._trial, 4, fails))
    result = mle_reconstruct(data, config)
    assert (result.converged, result.iterations) == (converges, iterations)
    assert len(result.log_likelihoods) == iterations + 1
    assert result.optimality_gap == pytest.approx(gap, rel=1e-3)
    records = measurement_matrix(data, config.cutoff)
    r = records.gradient(_record_probabilities(result.rho.entries, records))
    assert result.optimality_gap == pytest.approx(
        data.count * (np.linalg.eigvalsh(r)[-1] - 1.0), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cholesky_stop_decides_as_the_eigenvalue_gap(data):
    # R at a random state and at a partial fit of records from another one: the
    # Cholesky of (1 + stop_tol / K) I - R succeeds exactly where K (lambda_max(R)
    # - 1) <= stop_tol, wherever the two sides differ by more than 1e-9 of stop_tol.
    # Thresholds are scaled from the gap only where it lies far above its own
    # rounding (K eps): a gap of 2e-16 nats, as at cutoff 0, has no side to decide.
    cutoff = data.draw(st.integers(0, 6), label="cutoff")
    source = data.draw(st.integers(0, 8).flatmap(states), label="source")
    phases = data.draw(st.integers(1, 12), label="phases")
    per_phase = data.draw(st.integers(1, 25), label="per_phase")
    seed = data.draw(st.integers(0, 2**32 - 1), label="data seed")
    cap = data.draw(st.integers(1, 100), label="max_iterations")
    records = sample(source, 2.0 * math.pi * np.arange(phases) / phases, per_phase, [seed])[0]
    record_map = measurement_matrix(records, cutoff)
    estimates = [data.draw(states(cutoff), label="estimate").entries,
                 mle_reconstruct(records, MleConfig(cutoff=cutoff, max_iterations=cap)).rho.entries]
    for rho in estimates:
        r = record_map.gradient(_record_probabilities(rho, record_map))
        gap = records.count * (np.linalg.eigvalsh(r)[-1] - 1.0)
        scales = (0.5, 1.0 - 1e-3, 1.0 + 1e-3, 2.0) if gap >= 1e-6 else ()
        for stop_tol in (0.1, 1e-3, *(gap * scale for scale in scales)):
            if abs(gap - stop_tol) <= 1e-9 * stop_tol:
                continue
            ceiling = (1.0 + stop_tol / records.count) * np.eye(cutoff + 1)
            assert _certified(r, ceiling) == (gap <= stop_tol)


def test_a_converged_run_takes_one_eigendecomposition(monkeypatch):
    # the stop is decided by Cholesky factors; eigvalsh runs once, for the gap, on
    # every exit: the certificate, the cap and a failed line search (no tie occurs)
    data, config = thermal_records()
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    trial = tomo._trial
    for cap, fails, converges, iterations in [
            (2000, None, True, 26), (1, None, False, 1), (5, None, False, 5),
            (20, None, False, 20), (2000, RETRIED, True, 27), (2000, FAILED, False, 5)]:
        monkeypatch.setattr(tomo, "_trial", failing(trial, 4, fails) if fails else trial)
        calls.clear()
        result = mle_reconstruct(data, MleConfig(cutoff=config.cutoff, max_iterations=cap))
        assert (result.converged, result.iterations, len(calls)) == (converges, iterations, 1)


@pytest.mark.parametrize("records", [thermal_records, artificial_raw_records, coherent_records],
                         ids=["thermal", "artificial-raw", "coherent"])
def test_every_accepted_step_raises_the_likelihood(records):
    # the Armijo test reads the cancellation-free gain, so no accepted step
    # lowers the history beyond rounding, down to a 1e-9-nat certificate
    data, config = records()
    result = mle_reconstruct(data, MleConfig(cutoff=config.cutoff, stop_tol=1e-9))
    assert result.converged and result.optimality_gap <= 1e-9
    assert len(result.log_likelihoods) == result.iterations + 1
    assert np.diff(result.log_likelihoods).min() >= -1e-8


def test_both_layouts_reach_the_same_optimum():
    data, config = thermal_records()
    tight = MleConfig(cutoff=config.cutoff, stop_tol=1e-9)
    blocked = mle_reconstruct(data, tight)
    packed = mle_reconstruct(shuffled(data)[0], tight)
    assert blocked.converged and packed.converged
    assert trace_distance(blocked.rho, packed.rho) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_phase_blocks_match_the_packed_map_and_the_complex_oracle(data):
    cutoff = data.draw(st.integers(0, 7), label="cutoff")
    dim = cutoff + 1
    runs = data.draw(st.integers(1, 5), label="J")
    size = data.draw(st.integers(20, 25), label="S")
    count = runs * size
    x = data.draw(arrays(float, count, elements=st.floats(-4.0, 4.0)), label="x")
    phases = data.draw(arrays(float, runs, elements=st.floats(0.0, 2.0 * math.pi,
                                                              exclude_max=True), unique=True),
                       label="phases")  # a run is all the records at one phase in a row
    convention = data.draw(st.sampled_from(get_args(Convention)), label="convention")
    raw = data.draw(arrays(complex, (dim, dim), elements=st.complex_numbers(max_magnitude=1.0)),
                    label="raw")
    p = data.draw(arrays(float, count, elements=st.floats(0.1, 2.0)), label="p")
    h = raw + raw.conj().T
    records = QuadratureDataset(x, np.repeat(phases, size), convention)

    blocks = measurement_matrix(records, cutoff)
    assert blocks.products.shape == (runs, dim * (dim + 1) // 2, size)
    half = x * HALF_AXIS[convention]
    d = fock_wavefunctions(half, cutoff).T * np.exp(1j * np.outer(records.theta, np.arange(dim)))
    expectations = np.einsum("km,mn,kn->k", d.conj(), h, d).real
    gradient = np.einsum("k,km,kn->mn", 1.0 / p, d, d.conj()) / count
    oracles = [(expectations, gradient)]
    if runs > 1:  # one run stays one run in any order
        mixed, order = shuffled(records)
        packed = measurement_matrix(mixed, cutoff)
        assert packed.products.shape == (1, dim * dim, count)
        oracles.append((packed.probabilities(h)[np.argsort(order)], packed.gradient(p[order])))
    for probabilities, r in oracles:
        assert np.allclose(blocks.probabilities(h), probabilities, rtol=0, atol=1e-12)
        assert np.allclose(blocks.gradient(p), r, rtol=0, atol=1e-12)


def test_record_layout_follows_the_phase_runs():
    def layout(x, theta, cutoff):
        records = measurement_matrix(QuadratureDataset(x, theta, "half"), cutoff)
        return "packed" if records.slots.size == (cutoff + 1) ** 2 else "blocks"

    thermal, config = thermal_records()
    artificial, _ = artificial_raw_records()
    assert layout(thermal.x, thermal.theta, config.cutoff) == "blocks"  # 50 x 40
    assert layout(artificial.x, artificial.theta, config.cutoff) == "packed"  # 100 x 10
    # the phase order shuffled, one record short, and runs of 40, 30 and 50
    # (48 runs, as many records as 48 runs of 40)
    order = np.random.default_rng(0).permutation(thermal.count)
    assert layout(thermal.x[order], thermal.theta[order], 12) == "packed"
    assert layout(thermal.x[:-1], thermal.theta[:-1], 12) == "packed"
    uneven = np.repeat(PHASES_50[:48], [40, 30, 50] * 16)
    assert layout(np.zeros(uneven.size), uneven, 12) == "packed"
    # blocks need runs of S >= max(dim, 20), at any record count; the first two
    # cases are runs of S = dim that cost more in blocks (dim 11 at K = 2002,
    # dim 13 at K = 1495), the last two small sets of 9 800 and 48 400 slots
    for size, cutoff, runs, expected in (
            (11, 10, 182, "packed"), (13, 12, 115, "packed"), (19, 12, 400, "packed"),
            (20, 12, 400, "blocks"), (19, 7, 400, "packed"), (20, 7, 400, "blocks"),
            (25, 25, 40, "packed"), (26, 25, 40, "blocks"), (25, 6, 8, "blocks"),
            (20, 10, 20, "blocks")):
        theta = np.repeat(2.0 * math.pi * np.arange(runs) / runs, size)
        assert layout(np.zeros(theta.size), theta, cutoff) == expected


def test_both_layouts_take_the_same_iterations():
    # the two layouts sum the same products in another order: the iterates
    # agree to rounding, and the stop comes at the same iteration
    data, config = thermal_records()
    blocked = mle_reconstruct(data, config)
    packed = mle_reconstruct(shuffled(data)[0], config)
    assert blocked.iterations == packed.iterations
    assert trace_distance(blocked.rho, packed.rho) <= 1e-12
    assert log_likelihood(blocked.rho, data) == pytest.approx(
        packed.final_log_likelihood, rel=0.0, abs=1e-9)


def covariance_records(source, phases, per_phase):
    # 50 x 40 takes phase blocks and 100 x 10 the packed map, at cutoff 12
    state = (assemble(build_codebook(CodebookSpec(1.35, 8, 8)), 20) if source == "8x8"
             else mix([1.0], coherent_states([1.0], [math.pi / 3], 30)))
    data = sample(state, 2.0 * math.pi * np.arange(phases) / phases, per_phase, [8])[0]
    records = measurement_matrix(data, 12)
    assert records.products.shape[0] == (phases if per_phase == 40 else 1)
    return data


COVARIANCE_CASES = pytest.mark.parametrize(
    "source, phases, per_phase",
    [("8x8", 50, 40), ("8x8", 100, 10), ("coherent", 50, 40), ("coherent", 100, 10)],
    ids=["8x8-blocks", "8x8-packed", "coherent-blocks", "coherent-packed"])


@COVARIANCE_CASES
@pytest.mark.parametrize("phi", [0.3, 2.0 * math.pi * 7 / 50], ids=["0.3", "2pi-7/50"])
def test_rotating_every_lo_phase_rotates_the_reconstruction(source, phases, per_phase, phi):
    # Pi_k at theta_k + phi is U Pi_k U^H with U = diag(e^{i n phi}), and the
    # maximally mixed start is invariant, so the fit of the rotated records is
    # U rho U^H, step for step
    data = covariance_records(source, phases, per_phase)
    turned = QuadratureDataset(data.x, np.mod(data.theta + phi, 2.0 * math.pi), data.convention)
    config = MleConfig(cutoff=12)
    result, rotated = mle_reconstruct(data, config), mle_reconstruct(turned, config)
    u = np.exp(1j * phi * np.arange(13))
    expected = u[:, None] * result.rho.entries * u.conj()
    assert rotated.iterations == result.iterations
    assert np.max(np.abs(rotated.rho.entries - expected)) <= 1e-12


@COVARIANCE_CASES
def test_record_order_within_a_phase_run_changes_no_reconstruction(source, phases, per_phase):
    data = covariance_records(source, phases, per_phase)
    rng = np.random.default_rng(9)
    order = np.concatenate([run * per_phase + rng.permutation(per_phase)
                            for run in range(phases)])
    shuffled = QuadratureDataset(data.x[order], data.theta[order], data.convention)
    config = MleConfig(cutoff=12)
    result, reordered = mle_reconstruct(data, config), mle_reconstruct(shuffled, config)
    assert reordered.iterations == result.iterations
    assert np.max(np.abs(reordered.rho.entries - result.rho.entries)) <= 1e-12


@pytest.mark.parametrize("records", [thermal_records, artificial_raw_records, coherent_records],
                         ids=["thermal", "artificial-raw", "coherent"])
def test_no_iteration_runs_past_the_certificate(records):
    # The gap is checked after every iteration, so the run one iteration
    # shorter than the converged one has not yet certified stop_tol.
    data, config = records()
    result = mle_reconstruct(data, config)
    assert result.converged and result.iterations >= 1
    short = mle_reconstruct(data, MleConfig(cutoff=config.cutoff, stop_tol=config.stop_tol,
                                            max_iterations=result.iterations - 1))
    assert not short.converged
    assert short.optimality_gap > config.stop_tol


def test_thermal_ensemble_recovers_the_source():
    truth = thermal(1.35, 30)
    datasets = [sample(truth, PHASES_50, 40, [10_000 + r])[0] for r in range(10)]
    ensemble = reconstruct_ensemble(datasets, MleConfig(cutoff=12))
    reference = thermal(1.35, 12, tail_tol=1e-3)
    assert fidelity(ensemble.mean, reference) > 0.98
    assert mean_photon(ensemble.mean) == pytest.approx(1.35, abs=0.1)
    assert ensemble.spread[0, 0] < 0.03


@pytest.mark.parametrize(
    "source, seed_base",
    [(lambda: thermal(1.35, 30), 50_000),
     (lambda: assemble(build_codebook(CodebookSpec(1.35, 8, 8)), 30), 55_000)],
    ids=["thermal", "artificial"],
)
def test_default_stop_is_far_below_the_run_to_run_scatter(source, seed_base):
    # The default gap stops each run short of its optimum; on the acceptance
    # shape (10 runs x 2000 records, cutoff 12) that shortfall must be a small
    # fraction of how far independent runs of the same source lie apart.
    datasets = sample(source(), PHASES_50, 40, range(seed_base, seed_base + 10))
    default = [mle_reconstruct(d, MleConfig(cutoff=12)) for d in datasets]
    tight = [mle_reconstruct(d, MleConfig(cutoff=12, stop_tol=1e-9)) for d in datasets]
    assert all(r.converged for r in default + tight)
    shortfall = max(trace_distance(a.rho, b.rho) for a, b in zip(default, tight))
    scatter = np.median([trace_distance(a.rho, b.rho)
                         for i, a in enumerate(tight) for b in tight[i + 1:]])
    assert shortfall < 0.01 * scatter


def test_fidelity_improves_with_sample_size():
    truth = thermal(1.0, 30)
    reference = thermal(1.0, 12, tail_tol=1e-3)
    config = MleConfig(cutoff=12)
    improvements = {pair: 0 for pair in ((500, 2000), (2000, 8000))}
    for seed in (31, 32, 33):
        fids = {}
        for n_per_phase in (10, 40, 160):
            data = sample(truth, PHASES_50, n_per_phase, [seed])[0]
            fids[50 * n_per_phase] = fidelity(mle_reconstruct(data, config).rho, reference)
        for low, high in improvements:
            if fids[high] >= fids[low] - 0.002:
                improvements[(low, high)] += 1
    assert all(count >= 2 for count in improvements.values())  # majority of seeds


# ---------------------------------------------------------------------------
# reconstruct_ensemble
# ---------------------------------------------------------------------------


def test_average_of_identical_runs_has_zero_spread():
    data = sample(thermal(1.0, 30), PHASES_50, 10, [3])[0]
    config = MleConfig(cutoff=8)
    ensemble = reconstruct_ensemble([data, data], config)
    state = mle_reconstruct(data, config).rho.entries
    assert np.array_equal(ensemble.runs[0].rho.entries, state)
    assert np.array_equal(ensemble.runs[1].rho.entries, state)
    assert np.allclose(ensemble.mean.entries, state, rtol=0.0, atol=1e-15)
    assert np.all(ensemble.spread == 0.0)


def test_ensemble_mean_and_spread_are_the_runs_numpy_statistics():
    config = MleConfig(cutoff=4)
    datasets = sample(thermal(0.5, 20), PHASES_50[::5], 30, range(40, 43))
    ensemble = reconstruct_ensemble(datasets, config)
    assert len(ensemble.runs) == 3
    for run, data in zip(ensemble.runs, datasets):  # one fit per dataset, in order
        assert np.array_equal(run.rho.entries, mle_reconstruct(data, config).rho.entries)
    stack = np.stack([run.rho.entries for run in ensemble.runs])
    mean = stack.mean(axis=0)
    mean = mean / mean.trace().real
    spread = np.sqrt(stack.real.std(axis=0) ** 2 + stack.imag.std(axis=0) ** 2)
    assert ensemble.mean.cutoff == 4
    assert np.array_equal(ensemble.mean.entries, mean)
    assert np.array_equal(ensemble.spread, spread)
    assert np.max(spread) > 0.0
    # the spread is the root-mean-square distance of each entry from its mean
    rms = np.sqrt(np.mean(np.abs(stack - stack.mean(axis=0)) ** 2, axis=0))
    assert np.allclose(spread, rms, rtol=1e-12, atol=1e-15)


def test_reconstruct_ensemble_rejects_empty_input():
    with pytest.raises(ValueError, match="at least one dataset"):
        reconstruct_ensemble([])


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_mle_config_validation():
    with pytest.raises(ValueError, match="cutoff must be >= 0, got -1"):
        MleConfig(cutoff=-1)
    with pytest.raises(ValueError):
        MleConfig(max_iterations=0)
    with pytest.raises(ValueError):
        MleConfig(stop_tol=0.0)
    # nan > 0 is false, as nan <= 0 is: a nan tolerance would stop every run at once
    with pytest.raises(ValueError, match="stop_tol must be finite and > 0, got nan"):
        MleConfig(stop_tol=math.nan)
    # an infinite gap is met by the maximally mixed start, which would return unfitted
    with pytest.raises(ValueError, match="stop_tol must be finite and > 0, got inf"):
        MleConfig(stop_tol=math.inf)

