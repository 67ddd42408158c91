"""Metropolis exploration of 4-local coupling space toward clustered spectra.

The chain walks the coupling vector, rescaling every proposal so tr(H^2)
stays exactly at the initial draw's value, and accepts with probability
min(e^{f_new - f_old}, 1) for f(H, beta_D) = -beta_D sum_{i<j} ln|l_i - l_j|.
Raising f rewards eigenvalue clustering; beta_D anneals upward over stages.

Determinism: given the same params, schedule, and generator state the
trajectory replays bit-identically. Each step consumes, in order, one
uniform (step length), C(N,4) integers (direction), and one uniform
(acceptance) -- the acceptance uniform is drawn even when the move is an
automatic accept, so stream positions never depend on outcomes.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .ensemble import (
    CouplingTensor,
    EnsembleParams,
    build_hamiltonian,
    gaussian,
    rescale_to_trace,
    sample_couplings,
    trace_h_squared,
)
from .errors import NumericalError
from .pauli import DenseOperator, sector_block_positions

# pair distances are floored at this fraction of the spectral bandwidth
# inside the logarithm, so exact degeneracies contribute a large finite
# penalty instead of an infinity
LOG_CLAMP_FACTOR = 1e-13

# step-size adaptation: at each window's end sigma grows by SIGMA_FACTOR after
# more than RAISE_ACCEPTS acceptances and shrinks by it after fewer than LOWER_ACCEPTS
RAISE_ACCEPTS, LOWER_ACCEPTS, SIGMA_FACTOR = 50, 5, 1.1

# every proposal is rescaled to the target tr(H^2); the final couplings may
# differ from it by this much, relative, through roundoff alone
TRACE_DRIFT_TOL = 1e-8


@dataclass(frozen=True)
class Schedule:
    """Annealing stages and the steps per step-size adaptation window."""

    stages: tuple = ((0.5, 20000), (1.0, 20000), (1.5, 20000), (2.0, 20000))
    window: int = 100


@dataclass(frozen=True)
class ChainState:
    """Chain snapshot; accept_count/step_count live within one window."""

    couplings: CouplingTensor
    objective: float
    sigma: float
    accept_count: int
    step_count: int
    stage: float
    rng: np.random.Generator


@dataclass(frozen=True)
class TrajectoryRow:
    step: int
    beta_d: float
    objective: float
    sigma: float
    accept_rate: float


@dataclass(frozen=True)
class MetropolisResult:
    couplings: CouplingTensor
    trajectory: tuple
    target_trace: float
    trace_drift: float  # |tr(H^2) - target_trace| / target_trace of the final couplings


@lru_cache(maxsize=8)  # a chain asks for the same size every step
def _pair_indices(size: int):
    return np.triu_indices(size, k=1)


def objective_from_eigenvalues(eigenvalues: np.ndarray, beta_d: float, multiplicity: int = 1) -> float:
    """-beta_d sum_{i<j} ln|l_i - l_j| with degenerate pairs clamped.

    Each given level counts m = multiplicity times: a pair of distinct
    levels appears m^2 times, and the m copies of one level make m(m-1)/2
    exactly degenerate pairs, each clamped.
    """
    ev = np.sort(np.asarray(eigenvalues, dtype=np.float64))
    if ev.size * multiplicity < 2:
        return 0.0
    floor = LOG_CLAMP_FACTOR * float(ev[-1] - ev[0])
    if floor == 0.0:
        floor = np.finfo(np.float64).tiny
    i, j = _pair_indices(ev.size)
    log_gaps = np.log(np.maximum(ev[j] - ev[i], floor)).sum()
    if multiplicity > 1:
        copies = ev.size * multiplicity * (multiplicity - 1) // 2
        log_gaps = multiplicity ** 2 * log_gaps + copies * np.log(floor)
    return float(-beta_d * log_gaps)


def objective(h: DenseOperator, beta_d: float, per_sector: bool = False) -> float:
    """f(H, beta_D) of an SYK Hamiltonian from its parity blocks.

    The default takes the union of the two sector spectra, the literal
    reading of the algorithm; per_sector=True sums f over the sectors and so
    drops the physically unconstrained cross-sector pairs.  When
    q = log2(dim) is odd (N = 2 mod 4), particle-hole symmetry maps the even
    sector onto the odd one with the same spectrum (You, Ludwig & Xu,
    arXiv:1602.06964), so only the even block is diagonalized and each of
    its levels counts twice; h must then have that symmetry, as every SYK H
    has.
    """
    h = np.asarray(h)
    dim = h.shape[0]
    even, odd = sector_block_positions(dim)
    q = dim.bit_length() - 1  # dim = 2^q
    if q % 2:
        levels = np.linalg.eigvalsh(h.take(even))
        if per_sector:
            return 2.0 * objective_from_eigenvalues(levels, beta_d)
        return objective_from_eigenvalues(levels, beta_d, multiplicity=2)
    blocks = [np.linalg.eigvalsh(h.take(positions)) for positions in (even, odd)]
    if per_sector:
        return sum(objective_from_eigenvalues(levels, beta_d) for levels in blocks)
    return objective_from_eigenvalues(np.concatenate(blocks), beta_d)


def step_length(sigma: float, x: float) -> float:
    """l = (sigma/2)(sqrt(1 + 4x^2/(1-x^2)) - 1) for x in [0, 1)."""
    return 0.5 * sigma * (np.sqrt(1.0 + 4.0 * x * x / (1.0 - x * x)) - 1.0)


def propose(couplings: CouplingTensor, sigma: float, rng: np.random.Generator) -> CouplingTensor:
    """Move the coupling vector a random length l in a uniform direction.

    Draws one uniform for the length law, then a standard Gaussian
    direction rescaled to Euclidean length l.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = rng.random()
    length = step_length(sigma, x)
    direction = gaussian(rng, couplings.values.size)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0 or length == 0.0:
        return CouplingTensor(couplings.n, couplings.values.copy())
    return CouplingTensor(couplings.n, couplings.values + (length / norm) * direction)


def acceptance_probability(delta_f: float) -> float:
    """min(e^{delta_f}, 1) without overflow."""
    return float(np.exp(min(delta_f, 0.0)))


def metropolis_step(state: ChainState, target_trace: float, per_sector: bool = False) -> ChainState:
    """One propose/rescale/accept update; always consumes one acceptance draw."""
    candidate = rescale_to_trace(propose(state.couplings, state.sigma, state.rng), target_trace)
    f_new = objective(build_hamiltonian(candidate), state.stage, per_sector)
    u = state.rng.random()
    accepted = u < acceptance_probability(f_new - state.objective)
    return replace(
        state,
        couplings=candidate if accepted else state.couplings,
        objective=f_new if accepted else state.objective,
        accept_count=state.accept_count + int(accepted),
        step_count=state.step_count + 1,
    )


def adapt_sigma(state: ChainState, schedule: Schedule = Schedule()) -> ChainState:
    """Window-boundary step-size update; resets the window counters."""
    if state.step_count == 0 or state.step_count % schedule.window != 0:
        raise ValueError(f"adapt_sigma needs a full window, got {state.step_count} steps")
    sigma = state.sigma
    if state.accept_count > RAISE_ACCEPTS:
        sigma *= SIGMA_FACTOR
    elif state.accept_count < LOWER_ACCEPTS:
        sigma /= SIGMA_FACTOR
    return replace(state, sigma=sigma, accept_count=0, step_count=0)


def _run_fields(params: EnsembleParams, schedule: Schedule, member: int, per_sector: bool) -> dict:
    """The checkpoint fields that name a run; a resume must match every one."""
    return {
        "version": 2,
        "n": params.n,
        "seed": params.seed,
        "j_scale": params.j_scale,
        "member": member,
        "stages": [[float(b), int(s)] for b, s in schedule.stages],
        "window": schedule.window,
        "per_sector": per_sector,
    }


def check_run_fields(payload: dict, params: EnsembleParams, schedule: Schedule, member: int,
                     per_sector: bool) -> None:
    """Raise ValueError, naming the field, unless payload was recorded by this run."""
    for key, want in _run_fields(params, schedule, member, per_sector).items():
        if key not in payload:
            raise ValueError(f"checkpoint has no {key!r} field")
        if payload[key] != want:
            raise ValueError(f"checkpoint {key} is {payload[key]!r}, but this run has {want!r}")


def checkpoint_payload(
    params: EnsembleParams,
    schedule: Schedule,
    state: ChainState,
    member: int,
    per_sector: bool,
    target_trace: float,
    global_step: int,
    stage_index: int,
    stage_step: int,
) -> dict:
    """Self-describing JSON-ready snapshot sufficient for bit-exact resume."""
    return {
        **_run_fields(params, schedule, member, per_sector),
        "global_step": global_step,
        "stage_index": stage_index,
        "stage_step": stage_step,
        "sigma": state.sigma,
        "accept_count": state.accept_count,
        "window_step": state.step_count,
        "objective": state.objective,
        "target_trace": target_trace,
        "couplings": state.couplings.values.tolist(),
        "rng_state": state.rng.bit_generator.state,
    }


def run_schedule(
    params: EnsembleParams,
    schedule: Schedule,
    rng: np.random.Generator,
    checkpoint_sink=None,
    *,
    member: int = 0,
    sigma0: float = 0.001,
    per_sector: bool = False,
    checkpoint_every: int = 1000,
    resume: dict | None = None,
) -> MetropolisResult:
    """Run all annealing stages from a fresh disorder draw (or a checkpoint).

    Logs one trajectory row per window (objective, sigma, window acceptance
    rate) and hands a checkpoint payload to checkpoint_sink every
    checkpoint_every steps. On resume the returned trajectory holds only
    the rows produced after the checkpoint.

    Raises
    ------
    ValueError
        If the resume payload lacks a field, or was recorded with another
        version, n, seed, j_scale, member, stage list, window or
        per_sector; the message names the field.
    NumericalError
        If the final tr(H^2) differs from the target by more than
        TRACE_DRIFT_TOL, relative.
    """
    fresh = resume is None
    if fresh:
        # a fresh chain is a resume from its step-0 checkpoint
        couplings = sample_couplings(params, member)
        start = ChainState(couplings=couplings, objective=0.0, sigma=sigma0, accept_count=0,
                           step_count=0, stage=0.0, rng=rng)
        resume = checkpoint_payload(
            params, schedule, start, member, per_sector, trace_h_squared(couplings), 0, 0, 0
        )

    def field(key):
        if key not in resume:
            raise ValueError(f"checkpoint has no {key!r} field")
        return resume[key]

    check_run_fields(resume, params, schedule, member, per_sector)
    target = float(field("target_trace"))
    rng.bit_generator.state = field("rng_state")
    state = ChainState(
        couplings=CouplingTensor(params.n, np.asarray(field("couplings"))),
        objective=float(field("objective")),
        sigma=float(field("sigma")),
        accept_count=int(field("accept_count")),
        step_count=int(field("window_step")),
        stage=0.0,
        rng=rng,
    )
    global_step = int(field("global_step"))
    start_stage = int(field("stage_index"))
    start_stage_step = int(field("stage_step"))

    trajectory = []
    last_durable = None if fresh else global_step
    for stage_index in range(start_stage, len(schedule.stages)):
        beta_d, steps = schedule.stages[stage_index]
        state = replace(state, stage=float(beta_d))
        first = start_stage_step if stage_index == start_stage else 0
        if first == 0:
            # entering a stage re-evaluates f at the new beta_D; a mid-stage
            # resume restores the stored value instead, keeping bit parity
            state = replace(
                state,
                objective=objective(build_hamiltonian(state.couplings), float(beta_d), per_sector),
            )
        for stage_step in range(first, int(steps)):
            state = metropolis_step(state, target, per_sector)
            global_step += 1
            if state.step_count == schedule.window:
                trajectory.append(
                    TrajectoryRow(
                        step=global_step,
                        beta_d=float(beta_d),
                        objective=state.objective,
                        sigma=state.sigma,
                        accept_rate=state.accept_count / schedule.window,
                    )
                )
                state = adapt_sigma(state, schedule)
            if checkpoint_sink is not None and global_step % checkpoint_every == 0:
                payload = checkpoint_payload(
                    params, schedule, state, member, per_sector, target,
                    global_step, stage_index, stage_step + 1,
                )
                try:
                    checkpoint_sink(payload)
                except Exception as exc:
                    at = "none" if last_durable is None else f"step {last_durable}"
                    raise RuntimeError(
                        f"checkpoint write failed at step {global_step}; last durable checkpoint: {at}"
                    ) from exc
                last_durable = global_step
    drift = abs(trace_h_squared(state.couplings) - target) / target
    if not drift <= TRACE_DRIFT_TOL:
        raise NumericalError(f"final tr(H^2) drifted {drift:.3e} from its target, above {TRACE_DRIFT_TOL:g}")
    return MetropolisResult(
        couplings=state.couplings, trajectory=tuple(trajectory), target_trace=target, trace_drift=drift
    )
