import numpy as np
import pytest
from scipy.stats import kstest

from syklab import metropolis
from syklab.ensemble import (
    CouplingTensor,
    EnsembleParams,
    build_hamiltonian,
    member_rng,
    sample_couplings,
    trace_h_squared,
)
from syklab.metropolis import (
    ChainState,
    Schedule,
    acceptance_probability,
    adapt_sigma,
    metropolis_step,
    objective,
    objective_from_eigenvalues,
    propose,
    run_schedule,
    step_length,
)
from syklab.spectral import diagonalize


def test_objective_two_levels():
    assert objective_from_eigenvalues(np.array([0.0, 1.0]), 1.0) == 0.0


def test_objective_three_levels():
    f = objective_from_eigenvalues(np.array([0.0, 1.0, 2.0]), 1.0)
    assert f == pytest.approx(-np.log(2.0), rel=1e-12)


def test_objective_scaling_identity():
    rng = np.random.default_rng(0)
    ev = np.sort(rng.normal(size=6))
    c = 2.5
    pairs = 6 * 5 // 2
    for beta in (0.5, 2.0):
        expected = objective_from_eigenvalues(ev, beta) - beta * pairs * np.log(c)
        assert objective_from_eigenvalues(c * ev, beta) == pytest.approx(expected, rel=1e-10)


def test_objective_clamps_degenerate_pair():
    f = objective_from_eigenvalues(np.array([0.0, 0.0, 1.0]), 1.0)
    assert np.isfinite(f)
    # the duplicate pair contributes -ln(1e-13 * bandwidth); the other gaps are 1
    assert f == pytest.approx(-np.log(1e-13), rel=1e-12)
    assert np.isfinite(objective_from_eigenvalues(np.array([2.0, 2.0, 2.0]), 1.0))


def full_spectrum_objective(h, beta_d, per_sector=False):
    """The oracle: f from eigvalsh of the whole H, or summed over diagonalize's sectors."""
    if per_sector:
        spectra = diagonalize(h, need_vectors=False)
        return sum(objective_from_eigenvalues(s.eigenvalues, beta_d) for s in spectra)
    return objective_from_eigenvalues(np.linalg.eigvalsh(h), beta_d)


def test_objective_dense_and_per_sector():
    # n = 4: the even sector is basis states {0, 3}, the odd one {1, 2}
    h = np.zeros((4, 4), dtype=complex)
    h[np.ix_([0, 3], [0, 3])] = [[1.0, 1.0j], [-1.0j, 1.0]]  # levels 0 and 2
    h[1, 1], h[2, 2] = 1.0, 3.0
    # levels 0, 1, 2, 3: the gaps 1, 2, 3, 1, 2, 1 multiply to 12
    assert objective(h, 1.0) == pytest.approx(-np.log(12.0), rel=1e-12)
    # each sector alone has one gap of 2
    assert objective(h, 1.0, per_sector=True) == pytest.approx(-2.0 * np.log(2.0), rel=1e-12)
    h = build_hamiltonian(sample_couplings(EnsembleParams(n=8, seed=3), member=0))
    full = objective(h, 1.0)
    split = objective(h, 1.0, per_sector=True)
    assert np.isfinite(full) and np.isfinite(split)
    # per-sector drops the cross-sector pairs, so the values must differ
    assert full != pytest.approx(split)


def test_objective_multiplicity_counts_every_copy():
    levels = np.array([0.0, 1.0, 3.0])
    doubled = objective_from_eigenvalues(np.repeat(levels, 2), 0.7)
    assert objective_from_eigenvalues(levels, 0.7, multiplicity=2) == pytest.approx(doubled, rel=1e-13)


@pytest.mark.parametrize("per_sector", [False, True])
@pytest.mark.parametrize("n", [6, 8, 10, 12, 14])
def test_objective_matches_full_spectrum_oracle(n, per_sector):
    params = EnsembleParams(n=n, seed=42)
    for member in range(10):
        h = build_hamiltonian(sample_couplings(params, member))
        want = full_spectrum_objective(h, 1.5, per_sector)
        assert objective(h, 1.5, per_sector) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n, shapes", [(10, [(16, 16)]), (8, [(8, 8), (8, 8)])])
def test_objective_diagonalizes_sector_blocks_only(monkeypatch, n, shapes):
    # q = n/2 odd: the odd block repeats the even block's spectrum, so one block does
    eigvalsh, seen = np.linalg.eigvalsh, []

    def spy(a):
        seen.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    h = build_hamiltonian(sample_couplings(EnsembleParams(n=n, seed=42), 0))
    for per_sector in (False, True):
        seen.clear()
        objective(h, 1.0, per_sector)
        assert seen == shapes


@pytest.mark.parametrize("per_sector", [False, True])
def test_chain_matches_full_spectrum_oracle(monkeypatch, per_sector):
    params = EnsembleParams(n=10, seed=42)
    schedule = Schedule(stages=((0.5, 1000), (1.0, 1000)))
    fast = run_schedule(params, schedule, member_rng(42, 10 ** 6), per_sector=per_sector)
    monkeypatch.setattr(metropolis, "objective", full_spectrum_objective)
    slow = run_schedule(params, schedule, member_rng(42, 10 ** 6), per_sector=per_sector)
    assert np.array_equal(fast.couplings.values, slow.couplings.values)
    assert [(r.step, r.sigma, r.accept_rate) for r in fast.trajectory] == [
        (r.step, r.sigma, r.accept_rate) for r in slow.trajectory
    ]
    # f is ill-conditioned near clamped gaps, so the logged values agree only to roundoff
    for a, b in zip(fast.trajectory, slow.trajectory):
        assert a.objective == pytest.approx(b.objective, rel=1e-6)


def test_step_length_examples():
    assert step_length(0.7, 0.0) == 0.0
    x = 1.0 / np.sqrt(2.0)
    assert step_length(1.0, x) == pytest.approx(0.5 * (np.sqrt(5.0) - 1.0), rel=1e-12)


class _StubRng:
    """Deterministic stand-in feeding propose: one uniform, one integer block."""

    def __init__(self, x, fill=3 << 50):
        self.x = x
        self.fill = fill

    def random(self):
        return self.x

    def integers(self, low, high, size=None):
        return np.full(size, self.fill, dtype=np.int64)


def test_propose_zero_length_keeps_couplings():
    couplings = sample_couplings(EnsembleParams(n=6, seed=1), member=0)
    moved = propose(couplings, sigma=0.5, rng=_StubRng(x=0.0))
    assert np.array_equal(moved.values, couplings.values)
    with pytest.raises(ValueError):
        propose(couplings, sigma=0.0, rng=_StubRng(x=0.5))


def test_propose_step_length_distribution():
    couplings = sample_couplings(EnsembleParams(n=6, seed=2), member=0)
    rng = np.random.default_rng(7)
    sigma = 0.02
    lengths = np.array([
        np.linalg.norm(propose(couplings, sigma, rng).values - couplings.values)
        for _ in range(20000)
    ])
    median_expected = step_length(sigma, 0.5)
    assert np.median(lengths) == pytest.approx(median_expected, rel=0.03)
    # every displacement length obeys the law for some x in [0,1): finite and nonnegative
    assert lengths.min() >= 0.0
    assert np.all(np.isfinite(lengths))


def test_acceptance_probability_rule():
    assert acceptance_probability(0.3) == 1.0
    assert acceptance_probability(0.0) == 1.0
    assert acceptance_probability(-0.7) == pytest.approx(np.exp(-0.7), rel=1e-12)


def test_acceptance_frequency_monte_carlo():
    rng = np.random.default_rng(11)
    delta = -0.7
    trials = 20000
    hits = np.sum(rng.random(trials) < acceptance_probability(delta))
    p = np.exp(delta)
    se = np.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < 3 * se


def test_two_level_toy_stationary_distribution():
    # chain over spectra {0, x}, x in (0,1]: pi(x) ~ x^{-beta_D}, CDF x^{1-beta_D}
    beta_d = 0.5
    rng = np.random.default_rng(123)
    x = 0.5
    f = objective_from_eigenvalues(np.array([0.0, x]), beta_d)
    samples = []
    for step in range(200000):
        prop = x + 0.15 * rng.normal()
        while prop < 0.0 or prop > 1.0:
            prop = abs(prop)
            if prop > 1.0:
                prop = 2.0 - prop
        f_prop = objective_from_eigenvalues(np.array([0.0, prop]), beta_d)
        if rng.random() < acceptance_probability(f_prop - f):
            x, f = prop, f_prop
        if step >= 10000 and step % 20 == 0:
            samples.append(x)
    stat = kstest(np.array(samples), lambda v: np.sqrt(v)).statistic
    assert stat < 0.02


def _dummy_state(accepts, steps, sigma=1.0):
    couplings = sample_couplings(EnsembleParams(n=6, seed=0), member=0)
    return ChainState(
        couplings=couplings, objective=0.0, sigma=sigma,
        accept_count=accepts, step_count=steps, stage=0.5,
        rng=np.random.default_rng(0),
    )


def test_adapt_sigma_rules():
    assert adapt_sigma(_dummy_state(60, 100)).sigma == pytest.approx(1.1)
    assert adapt_sigma(_dummy_state(3, 100)).sigma == pytest.approx(1.0 / 1.1)
    for accepts in (30, 50, 5):
        out = adapt_sigma(_dummy_state(accepts, 100))
        assert out.sigma == 1.0
        assert out.accept_count == 0 and out.step_count == 0
    with pytest.raises(ValueError):
        adapt_sigma(_dummy_state(10, 37))
    with pytest.raises(ValueError):
        adapt_sigma(_dummy_state(0, 0))


def test_metropolis_step_counters_and_trace():
    params = EnsembleParams(n=8, seed=5)
    couplings = sample_couplings(params, member=0)
    target = trace_h_squared(couplings)
    state = ChainState(
        couplings=couplings,
        objective=objective(build_hamiltonian(couplings), 0.5),
        sigma=0.001, accept_count=0, step_count=0, stage=0.5,
        rng=np.random.default_rng(9),
    )
    for _ in range(25):
        state = metropolis_step(state, target)
    assert state.step_count == 25
    assert 0 <= state.accept_count <= 25
    assert trace_h_squared(state.couplings) == pytest.approx(target, rel=1e-12)
    assert np.isfinite(state.objective)


def test_run_schedule_zero_stages():
    params = EnsembleParams(n=8, seed=21)
    result = run_schedule(params, Schedule(stages=()), np.random.default_rng(0))
    assert np.array_equal(result.couplings.values, sample_couplings(params, 0).values)
    assert result.trajectory == ()


def test_run_schedule_short_chain_structure():
    params = EnsembleParams(n=8, seed=21)
    schedule = Schedule(stages=((0.5, 300), (1.0, 300)))
    result = run_schedule(params, schedule, np.random.default_rng(1))
    assert len(result.trajectory) == 6
    target = trace_h_squared(sample_couplings(params, 0))
    assert result.target_trace == pytest.approx(target)
    assert trace_h_squared(result.couplings) == pytest.approx(target, rel=1e-12)
    betas = [row.beta_d for row in result.trajectory]
    assert betas == [0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
    for row in result.trajectory:
        assert 0.0 <= row.accept_rate <= 1.0
        assert row.sigma > 0.0
        assert np.isfinite(row.objective)
    again = run_schedule(params, schedule, np.random.default_rng(1))
    assert np.array_equal(result.couplings.values, again.couplings.values)


def test_run_schedule_checkpoint_resume_is_bit_identical():
    params = EnsembleParams(n=8, seed=33)
    schedule = Schedule(stages=((0.5, 300), (1.0, 300)))
    payloads = []
    full = run_schedule(
        params, schedule, np.random.default_rng(4),
        payloads.append, checkpoint_every=200,
    )
    assert [p["global_step"] for p in payloads] == [200, 400, 600]
    mid = next(p for p in payloads if p["global_step"] == 400)
    resumed = run_schedule(
        params, schedule, np.random.default_rng(999), resume=mid,
    )
    assert np.array_equal(resumed.couplings.values, full.couplings.values)
    tail = [row for row in full.trajectory if row.step > 400]
    assert list(resumed.trajectory) == tail


def test_run_schedule_checkpoint_failure_reports_last_durable():
    params = EnsembleParams(n=8, seed=33)
    schedule = Schedule(stages=((0.5, 300),))
    calls = []

    def flaky(payload):
        calls.append(payload["global_step"])
        if len(calls) == 2:
            raise OSError("disk full")

    with pytest.raises(OSError, match="step 100"):
        run_schedule(params, schedule, np.random.default_rng(4), flaky, checkpoint_every=100)


def test_run_schedule_resume_rejects_other_ensemble():
    params = EnsembleParams(n=8, seed=33)
    schedule = Schedule(stages=((0.5, 200),))
    payloads = []
    run_schedule(params, schedule, np.random.default_rng(4), payloads.append, checkpoint_every=100)
    with pytest.raises(ValueError, match="seed"):
        run_schedule(
            EnsembleParams(n=8, seed=34), schedule,
            np.random.default_rng(4), resume=payloads[0],
        )


OTHER_RUN = {
    "version": 1, "n": 10, "seed": 34, "j_scale": 2.0, "member": 5,
    "stages": [[0.5, 200], [1.0, 200]], "window": 50, "per_sector": True,
}


@pytest.mark.parametrize("field, how", [
    *((field, "changed") for field in sorted(OTHER_RUN)),
    *((field, "missing") for field in [*sorted(OTHER_RUN), "couplings", "rng_state"]),
])
def test_run_schedule_resume_rejects_each_run_field(field, how):
    params = EnsembleParams(n=8, seed=33)
    schedule = Schedule(stages=((0.5, 200),))
    payloads = []
    run_schedule(params, schedule, np.random.default_rng(4), payloads.append, checkpoint_every=100)
    payload = dict(payloads[0])
    if how == "changed":
        payload[field] = OTHER_RUN[field]
    else:
        del payload[field]
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        run_schedule(params, schedule, np.random.default_rng(4), resume=payload)
