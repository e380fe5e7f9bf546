"""Seed-deterministic Monte Carlo driver for the five experiment kinds.

Samples are indexed 0..samples-1 and each index owns a Philox stream
keyed by (master_seed, index), so the value contributed by sample i is
a pure function of the config.  Accumulation is fixed too: samples are
folded into per-n Welford accumulators in index order within chunks of
CHUNK_SIZE, and chunk accumulators are merged in ascending chunk order.
Worker threads only change who computes a chunk, never the arithmetic,
which makes the result rows bit-identical for any parallelism.  Within a
chunk, blocks of BLOCK_SIZE samples are drawn, decomposed and observed
as stacks whose arithmetic is per sample, so the block size does not
change the rows either.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction

import numpy as np
from numpy.linalg import _umath_linalg

from . import __version__
from .closedform import CaseTag, cue_form_factor, cue_fourth_moment, ep1, ep_inf, op_ent_cue
from .dynamics import (
    SpectralBlock,
    _min_circular_gap,
    asymptotic_entropies,
    decompose_block,
    entropy_curves,
    form_factors,
    operator_curves,
)
from .ensembles import (
    BipartiteDims,
    EnsembleTag,
    FieldTag,
    _SEED_LIMIT,
    PhiloxStreams,
    basis_product_state,
    sample_block,
)

__all__ = [
    "ConfigError",
    "NumericalError",
    "ExperimentKind",
    "StateMode",
    "ExperimentConfig",
    "exact_targets",
    "ResultRow",
    "ResultTable",
    "check_parallelism",
    "run_experiment",
    "z_score",
    "CHUNK_SIZE",
    "BLOCK_SIZE",
]

CHUNK_SIZE = 512
# samples drawn, decomposed and observed together; a whole chunk at once
# costs megabytes of stacked orbits for no further gain
BLOCK_SIZE = 16
_STAGES = ("sample", "decompose", "observe", "accumulate")
_ASYMPTOTIC_N = -1
# BLAS thread settings worth echoing; they set the OpenBLAS count that a
# run finds, pins to one and restores
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# thread-count entry points of the OpenBLAS builds numpy ships, with {}
# standing for get or set
_OPENBLAS_THREAD_CALLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                          "openblas_{}_num_threads64_", "openblas_{}_num_threads")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class NumericalError(np.linalg.LinAlgError):
    """A sample's decomposition failed; its message names the master seed and sample index."""


class ExperimentKind(Enum):
    EP_CURVE = "ep_curve"
    OPENT_CURVE = "opent_curve"
    FORM_FACTOR = "form_factor"
    FOURTH_MOMENT = "fourth_moment"
    ASYMPTOTIC = "asymptotic"


class StateMode(Enum):
    FIXED_PRODUCT = "fixed"
    RANDOM_COMPLEX_PRODUCT = "random_complex"
    RANDOM_REAL_PRODUCT = "random_real"
    NONE = "none"


_STATE_KINDS = (ExperimentKind.EP_CURVE, ExperimentKind.ASYMPTOTIC)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one Monte Carlo run.

    state_mode applies to EP_CURVE and ASYMPTOTIC only; the operator
    kinds take NONE.  FIXED_PRODUCT starts every sample from
    |0>_A (x) |0>_B.
    """

    kind: ExperimentKind
    ensemble: EnsembleTag
    state_mode: StateMode
    d_a: int
    d_b: int
    n_max: int
    samples: int
    master_seed: int

    def __post_init__(self):
        if self.d_a < 1 or self.d_b < 1:
            raise ConfigError(f"subsystem dimensions must be >= 1, got ({self.d_a}, {self.d_b})")
        if self.ensemble not in (EnsembleTag.CUE, EnsembleTag.COE):
            raise ConfigError(f"ensemble must be CUE or COE, got {self.ensemble}")
        if self.samples < 2:
            raise ConfigError(f"samples must be >= 2, got {self.samples}")
        if self.n_max < 1:
            raise ConfigError(f"n_max must be >= 1, got {self.n_max}")
        if not 0 <= self.master_seed < _SEED_LIMIT:
            raise ConfigError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if self.kind in _STATE_KINDS:
            if self.state_mode is StateMode.NONE:
                raise ConfigError(f"{self.kind.value} needs an initial-state mode")
        elif self.state_mode is not StateMode.NONE:
            raise ConfigError(f"{self.kind.value} acts on operators; state_mode must be NONE")

    @property
    def dims(self) -> BipartiteDims:
        return BipartiteDims(self.d_a, self.d_b)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = v.value if isinstance(v, Enum) else v
        return out

    def case_tag(self) -> CaseTag:
        """Which closed-form case this run realizes.

        CUE is case A for every initial-state mode (the Haar average
        makes the fixed/random distinction irrelevant).  COE splits on
        the state field: random complex states are case B; the real
        fixed state |0>|0> and random real states are case C, and so
        are the operator kinds, which take no state.
        """
        if self.ensemble is EnsembleTag.CUE:
            return CaseTag.A_CUE_COMPLEX
        if self.state_mode is StateMode.RANDOM_COMPLEX_PRODUCT:
            return CaseTag.B_COE_COMPLEX
        return CaseTag.C_COE_REAL


def exact_targets(cfg: ExperimentConfig) -> list[tuple[int, str, Fraction | int]]:
    """Result rows with a closed-form mean, as (n, label, exact value).

    CUE curves are exact at n = 1, the entropy also on its plateau
    n >= d; COE entropy curves, which approach their asymptote smoothly,
    at n = 1 only.  ASYMPTOTIC targets its n = -1 row.  Others give [].
    """
    da, db, d = cfg.d_a, cfg.d_b, cfg.d_a * cfg.d_b
    case = cfg.case_tag()
    cue = cfg.ensemble is EnsembleTag.CUE
    if cfg.kind is ExperimentKind.EP_CURVE:
        if not cue:
            return [(1, "ep1(b,c)", ep1(case, da, db))]
        return [(1, "ep1(a)", ep1(case, da, db))] + [
            (n, "epinf(a)", ep_inf(case, da, db)) for n in range(d, cfg.n_max + 1)]
    if cfg.kind is ExperimentKind.ASYMPTOTIC:
        return [(_ASYMPTOTIC_N, f"epinf({case.value})", ep_inf(case, da, db))]
    if not cue:
        return []
    if cfg.kind is ExperimentKind.OPENT_CURVE:
        return [(1, "opent_cue", op_ent_cue(da, db))]
    if cfg.kind is ExperimentKind.FORM_FACTOR:
        return [(n, "form_factor", cue_form_factor(n, d)) for n in range(1, cfg.n_max + 1)]
    return [(n, "fourth_moment", cue_fourth_moment(n, d)) for n in range(1, cfg.n_max + 1)]


@dataclass(frozen=True)
class ResultRow:
    n: int
    mean: float
    stderr: float
    count: int


@dataclass
class ResultTable:
    """Per-n statistics rows plus run metadata.

    The rows are part of the deterministic contract; metadata echoes
    the config and records wall time, which is not.
    """

    rows: list[ResultRow]
    metadata: dict

    def row_for(self, n: int) -> ResultRow:
        for row in self.rows:
            if row.n == n:
                return row
        raise KeyError(f"no row for n = {n}")


# the field of the random product states a state mode draws; the others draw none
_STATE_FIELDS = {
    StateMode.RANDOM_COMPLEX_PRODUCT: FieldTag.COMPLEX,
    StateMode.RANDOM_REAL_PRODUCT: FieldTag.REAL,
}


@dataclass
class _Tally:
    """What a chunk reports beside its statistics: numerical health and stage seconds."""

    resonant: int = 0
    redos: int = 0
    max_residual: float = 0.0
    min_phase_gap: float = np.inf
    seconds: dict = field(default_factory=lambda: dict.fromkeys(_STAGES, 0.0))

    def lap(self, stage: str, since: float) -> float:
        """Charge the seconds from `since` to now to `stage`; returns now."""
        now = time.perf_counter()
        self.seconds[stage] += now - since
        return now

    def add(self, other: _Tally) -> None:
        self.resonant += other.resonant
        self.redos += other.redos
        self.max_residual = max(self.max_residual, other.max_residual)
        self.min_phase_gap = min(self.min_phase_gap, other.min_phase_gap)
        for stage, s in other.seconds.items():
            self.seconds[stage] += s


def _observe(cfg: ExperimentConfig, block: SpectralBlock, psi: np.ndarray | None,
             tally: _Tally) -> np.ndarray:
    """One row of values per unitary of the block, shape (k, n_rows)."""
    if cfg.kind is ExperimentKind.EP_CURVE:
        return entropy_curves(block, psi, cfg.n_max)
    if cfg.kind is ExperimentKind.OPENT_CURVE:
        return operator_curves(block, cfg.n_max)
    if cfg.kind is ExperimentKind.FORM_FACTOR:
        return form_factors(block.phases, cfg.n_max)
    if cfg.kind is ExperimentKind.FOURTH_MOMENT:
        return form_factors(block.phases, cfg.n_max) ** 2
    values, resonant = asymptotic_entropies(block, psi)
    tally.resonant += int(np.count_nonzero(resonant))
    return values[:, None]


def _decompose(cfg: ExperimentConfig, u: np.ndarray, first: int) -> SpectralBlock:
    """decompose_block of samples first, first+1, ...; on failure, redo each alone to name it."""
    symmetric = cfg.ensemble is EnsembleTag.COE
    try:
        return decompose_block(u, cfg.dims, symmetric=symmetric)
    except np.linalg.LinAlgError:
        for k in range(len(u)):
            try:
                decompose_block(u[k:k + 1], cfg.dims, symmetric=symmetric)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"decomposition of sample {first + k} of master seed "
                                     f"{cfg.master_seed} failed: {exc}") from exc
        raise


def _chunk_stats(cfg: ExperimentConfig, start: int, count: int):
    """Accumulate samples [start, start+count) in index order.

    Returns (count, means, m2s, tally) with one mean and m2 per result
    row.  Samples go through in blocks of BLOCK_SIZE, aligned to the
    chunk start: the block's unitaries and states are drawn through the
    chunk's one re-keyed Philox (the unitary first, then the A and B
    factors of a random state, as laid out on each sample's stream), then
    decomposed as one stack, observed together and folded into the
    Welford accumulators one sample at a time.  Stacked draws and
    decompositions treat each sample alone, so rows do not depend on
    the block size.  The stage clocks run back to back from entry to
    return, so their sum is the chunk's time (0 for an empty chunk).
    """
    tally = _Tally()
    t = time.perf_counter()
    n_rows = 1 if cfg.kind is ExperimentKind.ASYMPTOTIC else cfg.n_max
    mean = np.zeros(n_rows)
    m2 = np.zeros(n_rows)
    streams = PhiloxStreams(cfg.master_seed)
    field_tag = _STATE_FIELDS.get(cfg.state_mode)
    fixed = None
    if cfg.state_mode is StateMode.FIXED_PRODUCT:
        fixed = np.broadcast_to(basis_product_state(cfg.dims), (BLOCK_SIZE, cfg.dims.d))
    # the set-up above counts as sampling, in the first block's lap
    for offset in range(0, count, BLOCK_SIZE):
        size = min(BLOCK_SIZE, count - offset)
        u, psi = sample_block(cfg.ensemble, cfg.dims, field_tag, streams, start + offset, size)
        if fixed is not None:
            psi = fixed[:size]
        t = tally.lap("sample", t)
        block = _decompose(cfg, u, start + offset)
        t = tally.lap("decompose", t)
        values = _observe(cfg, block, psi, tally)
        t = tally.lap("observe", t)
        for k, x in enumerate(values, start=offset):
            delta = x - mean
            mean += delta / (k + 1)
            m2 += delta * (x - mean)
        tally.redos += block.redos
        tally.max_residual = max(tally.max_residual, float(block.residuals.max()))
        tally.min_phase_gap = min(tally.min_phase_gap, float(_min_circular_gap(block.phases).min()))
        t = tally.lap("accumulate", t)
    return count, mean, m2, tally


def _merge_chunks(parts):
    count, mean, m2, tally = 0, None, None, _Tally()
    for c_count, c_mean, c_m2, c_tally in parts:
        tally.add(c_tally)
        if mean is None:
            count, mean, m2 = c_count, c_mean, c_m2
            continue
        total = count + c_count
        delta = c_mean - mean
        mean = mean + delta * (c_count / total)
        m2 = m2 + c_m2 + delta * delta * (count * c_count / total)
        count = total
    return count, mean, m2, tally


@functools.cache
def _openblas() -> tuple:
    """(get, set) of the thread count of the OpenBLAS that numpy calls.

    Looked up once on the handle of numpy's linalg extension, which also
    finds the symbols of the libraries that extension links, wherever
    numpy installed them.  () where numpy links another BLAS or the
    lookup fails.
    """
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return ()
    for call in _OPENBLAS_THREAD_CALLS:
        get = getattr(lib, call.format("get"), None)
        set_ = getattr(lib, call.format("set"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return ()


class _BlasPin:
    """numpy's OpenBLAS held at one thread while any run is inside, its count restored after.

    Worker threads supply a run's parallelism; OpenBLAS threads on top
    of them spin between the many small calls and compete for the same
    cores.  The count is one per process, so concurrent runs share the
    pin: the first one in saves the count and pins, and the last one out
    restores it.  Entering gives the count before the pin and the count
    in use, as {"before": n, "run": 1}; with no OpenBLAS found the pin
    does nothing and gives {}.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._before = None  # the count before the pin, while any run is inside

    def __enter__(self) -> dict[str, int]:
        with self._lock:
            self._depth += 1
            if not _openblas():
                return {}
            get, set_threads = _openblas()
            if self._depth == 1:
                self._before = get()
                set_threads(1)
            return {"before": self._before, "run": get()}

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and _openblas():
                _openblas()[1](self._before)


_BLAS_PIN = _BlasPin()


def check_parallelism(parallelism: int) -> int:
    """parallelism itself if it is a positive thread count; ConfigError otherwise."""
    if parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {parallelism}")
    return parallelism


def run_experiment(cfg: ExperimentConfig, parallelism: int = 1) -> ResultTable:
    """Run one experiment; rows are identical for any parallelism.

    EP_CURVE / OPENT_CURVE produce one row per n = 1..n_max;
    FORM_FACTOR / FOURTH_MOMENT likewise for |t_n|^2 / |t_n|^4;
    ASYMPTOTIC produces a single row with the n = -1 sentinel.  The
    metadata's "numerics" reports decomposition redos, the worst
    reconstruction residual, the smallest eigenphase gap and the
    samples whose pair sums resonate (ASYMPTOTIC only, else 0);
    "timings" the seconds spent in each stage, summed over all blocks,
    chunks and worker threads, so that with parallelism > 1 they can
    add up to more than "wall_seconds".  "env" records the Python and
    numpy versions, the CPU count, the parallelism and any BLAS thread
    variables set, and "blas_threads" the thread count of numpy's
    OpenBLAS before the run and during it ({} where none is found).

    Chunks run on a pool of `parallelism` threads: a block's work is
    large numpy/LAPACK calls that release the GIL.  numpy's OpenBLAS runs
    on one thread for the whole run, and its count is restored when the
    last concurrent run returns or raises (see :class:`_BlasPin`).  If a
    chunk raises (or the caller is interrupted), chunks not yet started
    are cancelled and the exception reaches the caller once the running
    ones finish.  A failed decomposition raises NumericalError, which
    names the master seed and the sample index.
    """
    check_parallelism(parallelism)
    t0 = time.perf_counter()
    spans = [(s, min(CHUNK_SIZE, cfg.samples - s)) for s in range(0, cfg.samples, CHUNK_SIZE)]
    with _BLAS_PIN as blas_threads:
        if parallelism == 1 or len(spans) == 1:
            parts = [_chunk_stats(cfg, s, c) for s, c in spans]
        else:
            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                try:
                    parts = list(pool.map(lambda span: _chunk_stats(cfg, *span), spans))
                except BaseException:
                    pool.shutdown(cancel_futures=True)
                    raise
    count, mean, m2, tally = _merge_chunks(parts)
    variance = m2 / (count - 1)
    stderr = np.sqrt(variance / count)
    if cfg.kind is ExperimentKind.ASYMPTOTIC:
        ns = [_ASYMPTOTIC_N]
    else:
        ns = list(range(1, cfg.n_max + 1))
    rows = [ResultRow(n, float(mean[i]), float(stderr[i]), count) for i, n in enumerate(ns)]
    wall = time.perf_counter() - t0
    metadata = {
        "config": cfg.to_dict(),
        "version": __version__,
        "wall_seconds": wall,
        "samples_per_second": cfg.samples / wall,
        "numerics": {
            "decomposition_redos": tally.redos,
            "max_residual": tally.max_residual,
            "min_phase_gap": tally.min_phase_gap,
            "resonant_samples": tally.resonant,
        },
        "timings": {f"{stage}_s": s for stage, s in tally.seconds.items()},
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "parallelism": parallelism,
            "thread_env": {k: os.environ[k] for k in _THREAD_ENV if k in os.environ},
            "blas_threads": blas_threads,
        },
    }
    return ResultTable(rows, metadata)


def z_score(observed_mean: float, observed_stderr: float, target) -> float:
    """Gate statistic (mean - target) / stderr; target may be exact."""
    if not observed_stderr > 0:
        raise ValueError(f"stderr must be positive, got {observed_stderr}")
    return (observed_mean - float(target)) / observed_stderr
