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

from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate

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
    """The chain: annealing stages, steps per step-size window, objective variant."""

    stages: tuple = ((0.5, 20000), (1.0, 20000), (1.5, 20000), (2.0, 20000))
    window: int = 100
    per_sector: bool = False


def parse_stages(text: str) -> tuple[tuple[float, int], ...]:
    """The stages of a `beta_D:steps` comma list such as "0.5:20000,1.0:20000"; empty text has none."""
    stages = []
    for tok in filter(str.strip, text.split(",")):
        try:
            beta_d, steps = tok.split(":")
            stage = (float(beta_d), int(steps))
            ok = np.isfinite(stage[0]) and stage[1] >= 0
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"stage {tok.strip()!r} is not beta_D:steps with a finite beta_D")
        stages.append(stage)
    return tuple(stages)


@dataclass(frozen=True)
class ChainState:
    """Chain snapshot; accept_count counts within the current window."""

    couplings: CouplingTensor
    objective: float
    sigma: float
    accept_count: int
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
    arXiv:1602.06964; the map is pauli.particle_hole_map), so only the even
    block is diagonalized and each of its levels counts twice; h must then
    have that symmetry, as every SYK H has.  Unlike spectral.diagonalize, it
    does not compare the blocks, which would add an O(dim^2) check to every
    chain step.
    """
    h = np.asarray(h)
    dim = h.shape[0]
    (even, _), (_, odd) = sector_block_positions(dim)
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


def metropolis_step(state: ChainState, target_trace: float, beta_d: float, per_sector: bool) -> ChainState:
    """One propose/rescale/accept update; always consumes one acceptance draw."""
    candidate = rescale_to_trace(propose(state.couplings, state.sigma, state.rng), target_trace)
    f_new = objective(build_hamiltonian(candidate), beta_d, per_sector)
    if not state.rng.random() < acceptance_probability(f_new - state.objective):
        return state
    return ChainState(candidate, f_new, state.sigma, state.accept_count + 1, state.rng)


def adapt_sigma(state: ChainState) -> ChainState:
    """Window-end step-size update; resets the window's accept count."""
    sigma = state.sigma
    if state.accept_count > RAISE_ACCEPTS:
        sigma *= SIGMA_FACTOR
    elif state.accept_count < LOWER_ACCEPTS:
        sigma /= SIGMA_FACTOR
    return replace(state, sigma=sigma, accept_count=0)


def _position(schedule: Schedule, global_step: int) -> tuple:
    """(stage_index, stage_step, window_step) of the chain after global_step steps.

    A step belongs to the stage that took it: a stage's last step stays in
    that stage, a 0-step stage takes none, and step 0 is stage 0, step 0.
    """
    ends = list(accumulate(int(steps) for _, steps in schedule.stages))
    stage_index = bisect_left(ends, global_step)
    stage_step = global_step - (ends[stage_index - 1] if stage_index else 0)
    return stage_index, stage_step, global_step % schedule.window


def _run_fields(params: EnsembleParams, schedule: Schedule, member: int) -> dict:
    """The checkpoint fields that name a run; a resume must match every one."""
    return {
        "version": 2,
        "n": params.n,
        "seed": params.seed,
        "j_scale": params.j_scale,
        "member": member,
        "stages": [[float(b), int(s)] for b, s in schedule.stages],
        "window": schedule.window,
        "per_sector": schedule.per_sector,
    }


def _count(value) -> int:
    if type(value) is not int or value < 0:
        raise ValueError("want a nonnegative integer")
    return value


def _finite(value) -> np.ndarray:
    out = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise ValueError("want finite numbers")
    return out


def _real(value) -> float:
    out = _finite(value)
    if out.shape != ():
        raise ValueError("want one number")
    return float(out)


def _positive(value) -> float:
    value = _real(value)
    if not value > 0.0:
        raise ValueError("want a positive number")
    return value


def restore_chain(payload: dict, params: EnsembleParams, schedule: Schedule, member: int,
                  rng: np.random.Generator):
    """The chain state a checkpoint payload records, with rng set to its generator state.

    Returns (state, target_trace, global_step).

    Raises
    ------
    ValueError
        Naming the field, if payload lacks a field, was recorded with another
        version, n, seed, j_scale, member, stage list, window or per_sector,
        holds a value that no step of this run can have, or records a
        stage_index, stage_step or window_step other than its global_step's.
    """
    for key, want in _run_fields(params, schedule, member).items():
        if key not in payload:
            raise ValueError(f"checkpoint has no {key!r} field")
        if payload[key] != want:
            raise ValueError(f"checkpoint {key} is {payload[key]!r}, but this run has {want!r}")

    def field(key, parse):
        if key not in payload:
            raise ValueError(f"checkpoint has no {key!r} field")
        try:
            return parse(payload[key])
        except (TypeError, ValueError, KeyError) as exc:
            raise ValueError(f"checkpoint {key} is {payload[key]!r:.80}: {exc}") from None

    state = ChainState(
        couplings=field("couplings", lambda v: CouplingTensor(params.n, _finite(v))),
        objective=field("objective", _real),
        sigma=field("sigma", _positive),
        accept_count=field("accept_count", _count),
        rng=rng,
    )
    global_step = field("global_step", _count)
    total = sum(int(steps) for _, steps in schedule.stages)
    if global_step > total:
        raise ValueError(f"checkpoint global_step {global_step} is past the {total} steps of these stages")
    position = _position(schedule, global_step)
    for key, want in zip(("stage_index", "stage_step", "window_step"), position):
        if field(key, _count) != want:
            raise ValueError(f"checkpoint {key} is {payload[key]!r}, but global_step {global_step} "
                             f"puts it at {want}")
    if state.accept_count > position[2]:
        raise ValueError(f"checkpoint accept_count {state.accept_count} exceeds window_step {position[2]}")
    field("rng_state", lambda v: setattr(rng.bit_generator, "state", v))
    return state, field("target_trace", _positive), global_step


def checkpoint_payload(params: EnsembleParams, schedule: Schedule, state: ChainState, member: int,
                       target_trace: float, global_step: int) -> dict:
    """Self-describing JSON-ready snapshot sufficient for bit-exact resume."""
    stage_index, stage_step, window_step = _position(schedule, global_step)
    return {
        **_run_fields(params, schedule, member),
        "global_step": global_step,
        "stage_index": stage_index,
        "stage_step": stage_step,
        "sigma": state.sigma,
        "accept_count": state.accept_count,
        "window_step": window_step,
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
        If checkpoint_sink is set and checkpoint_every is below 1, or if
        restore_chain rejects the resume payload; the message names the
        field.
    OSError
        If checkpoint_sink fails with one; the message names the step and
        the last durable checkpoint.
    NumericalError
        If the final tr(H^2) differs from the target by more than
        TRACE_DRIFT_TOL, relative.
    """
    if checkpoint_sink is not None and checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be at least 1, got {checkpoint_every!r}")
    fresh = resume is None
    if fresh:
        # a fresh chain is a resume from its step-0 checkpoint
        couplings = sample_couplings(params, member)
        start = ChainState(couplings=couplings, objective=0.0, sigma=sigma0, accept_count=0, rng=rng)
        resume = checkpoint_payload(params, schedule, start, member, trace_h_squared(couplings), 0)

    state, target, global_step = restore_chain(resume, params, schedule, member, rng)

    trajectory = []
    last_durable = None if fresh else global_step
    stage_end = 0
    for beta_d, steps in schedule.stages:
        beta_d = float(beta_d)
        if global_step == stage_end:
            # a chain entering the stage re-evaluates f at the new beta_D; a
            # resume inside it restores the stored value instead, keeping bit parity
            state = replace(
                state, objective=objective(build_hamiltonian(state.couplings), beta_d, schedule.per_sector)
            )
        stage_end += int(steps)
        while global_step < stage_end:
            state = metropolis_step(state, target, beta_d, schedule.per_sector)
            global_step += 1
            if global_step % schedule.window == 0:
                trajectory.append(
                    TrajectoryRow(
                        step=global_step,
                        beta_d=beta_d,
                        objective=state.objective,
                        sigma=state.sigma,
                        accept_rate=state.accept_count / schedule.window,
                    )
                )
                state = adapt_sigma(state)
            if checkpoint_sink is not None and global_step % checkpoint_every == 0:
                payload = checkpoint_payload(params, schedule, state, member, target, global_step)
                try:
                    checkpoint_sink(payload)
                except OSError as exc:
                    at = "none" if last_durable is None else f"step {last_durable}"
                    raise OSError(
                        f"checkpoint write failed at step {global_step}; last durable checkpoint: {at} ({exc})"
                    ) from exc
                last_durable = global_step
    drift = abs(trace_h_squared(state.couplings) - target) / target
    if not drift <= TRACE_DRIFT_TOL:
        raise NumericalError(f"final tr(H^2) drifted {drift:.3e} from its target, above {TRACE_DRIFT_TOL:g}")
    return MetropolisResult(
        couplings=state.couplings, trajectory=tuple(trajectory), target_trace=target, trace_drift=drift
    )
