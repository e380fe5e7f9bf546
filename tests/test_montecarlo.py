import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import entpower
from entpower import dynamics, montecarlo
from entpower.dynamics import decompose_block, form_factors
from entpower.ensembles import (
    EnsembleTag,
    FieldTag,
    PhiloxStreams,
    sample_block,
)
from entpower.montecarlo import (
    ConfigError,
    ExperimentConfig,
    ExperimentKind,
    StateMode,
    run_experiment,
    z_score,
)

import oracles


def small_config(**overrides):
    base = dict(
        kind=ExperimentKind.EP_CURVE,
        ensemble=EnsembleTag.CUE,
        state_mode=StateMode.FIXED_PRODUCT,
        d_a=2,
        d_b=3,
        n_max=6,
        samples=600,
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _fed_chunk(monkeypatch, values, start=0):
    """_chunk_stats over a FORM_FACTOR run whose samples are `values`."""
    fed = iter(values)
    monkeypatch.setattr(montecarlo, "form_factors",
                        lambda phases, n_max: np.array([[next(fed)] for _ in phases]))
    cfg = small_config(kind=ExperimentKind.FORM_FACTOR, state_mode=StateMode.NONE, n_max=1)
    return montecarlo._chunk_stats(cfg, start, len(values))


def test_stats_update_basics(monkeypatch):
    count, mean, m2, _ = _fed_chunk(monkeypatch, [5.0])
    assert (count, mean[0], m2[0]) == (1, 5.0, 0.0)
    count, mean, m2, _ = _fed_chunk(monkeypatch, [1.0, 2.0, 3.0])
    assert count == 3
    assert abs(mean[0] - 2.0) < 1e-15
    assert abs(m2[0] / (count - 1) - 1.0) < 1e-15


def test_stats_merge_identity_and_small_case(monkeypatch):
    s = _fed_chunk(monkeypatch, [1.0, 2.0])
    empty = _fed_chunk(monkeypatch, [])
    for merged in (montecarlo._merge_chunks([empty, s]), montecarlo._merge_chunks([s, empty])):
        assert merged[0] == s[0] and merged[3] == s[3]
        assert np.array_equal(merged[1], s[1]) and np.array_equal(merged[2], s[2])
    count, mean, m2, _ = montecarlo._merge_chunks([s, _fed_chunk(monkeypatch, [3.0], start=2)])
    assert count == 3
    assert abs(mean[0] - 2.0) < 1e-12
    assert abs(m2[0] / (count - 1) - 1.0) < 1e-12


def test_accumulator_matches_two_pass_statistics(monkeypatch):
    # 37-sample chunks: 16 full chunks plus a remainder, all merged
    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 37)
    cfg = small_config(kind=ExperimentKind.FORM_FACTOR, state_mode=StateMode.NONE)
    table = run_experiment(cfg)
    # per-sample |tr U^n|^2, recomputed outside run_experiment's accumulator
    entries, _ = sample_block(cfg.ensemble, cfg.dims, None, PhiloxStreams(cfg.master_seed), 0,
                              cfg.samples)
    values = form_factors(decompose_block(entries, cfg.dims).phases, cfg.n_max)
    for row, column in zip(table.rows, values.T):
        assert row.count == cfg.samples
        assert abs(row.mean - column.mean()) < 1e-12
        assert abs(row.stderr - column.std(ddof=1) / np.sqrt(cfg.samples)) < 1e-12


def test_accumulator_constant_stream(monkeypatch):
    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 37)
    monkeypatch.setattr(montecarlo, "form_factors",
                        lambda phases, n_max: np.full((len(phases), n_max), 0.25))
    cfg = small_config(kind=ExperimentKind.FORM_FACTOR, state_mode=StateMode.NONE,
                       samples=5_000, n_max=2)
    for row in run_experiment(cfg).rows:
        assert row.mean == 0.25
        assert row.stderr == 0.0


@pytest.mark.parametrize("kind,state", [
    (ExperimentKind.EP_CURVE, StateMode.RANDOM_COMPLEX_PRODUCT),
    (ExperimentKind.OPENT_CURVE, StateMode.NONE),
], ids=["ep", "opent"])
def test_chunk_partition_invariance(monkeypatch, kind, state):
    cfg = small_config(kind=kind, state_mode=state)
    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 512)
    coarse = run_experiment(cfg).rows
    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 37)
    fine = run_experiment(cfg).rows
    for a, b in zip(coarse, fine):
        assert a.count == b.count == cfg.samples
        assert abs(a.mean - b.mean) < 1e-12
        assert abs(a.stderr - b.stderr) < 1e-12


@pytest.mark.parametrize("kind,ensemble,state,shape", [
    (ExperimentKind.EP_CURVE, EnsembleTag.CUE, StateMode.FIXED_PRODUCT, (2, 3, 6)),
    (ExperimentKind.EP_CURVE, EnsembleTag.COE, StateMode.RANDOM_COMPLEX_PRODUCT, (2, 3, 6)),
    (ExperimentKind.OPENT_CURVE, EnsembleTag.CUE, StateMode.NONE, (2, 3, 6)),
    (ExperimentKind.OPENT_CURVE, EnsembleTag.CUE, StateMode.NONE, (4, 5, 40)),
    (ExperimentKind.FOURTH_MOMENT, EnsembleTag.CUE, StateMode.NONE, (2, 3, 6)),
    (ExperimentKind.ASYMPTOTIC, EnsembleTag.COE, StateMode.RANDOM_REAL_PRODUCT, (2, 3, 1)),
], ids=["ep-cue", "ep-coe-complex", "opent", "opent-4x5", "fourth-moment", "asym-coe-real"])
def test_rows_independent_of_block_size(monkeypatch, kind, ensemble, state, shape):
    # 37 samples: two full blocks of 16 and a remainder of 5; shape is (d_a, d_b, n_max),
    # and 4x5 to n_max 40 is the benchmark's operator curve
    d_a, d_b, n_max = shape
    cfg = small_config(kind=kind, ensemble=ensemble, state_mode=state, samples=37,
                       d_a=d_a, d_b=d_b, n_max=n_max)
    blocked = run_experiment(cfg).rows
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 1)
    assert run_experiment(cfg).rows == blocked


@pytest.mark.parametrize("state,field_tag", [
    (StateMode.FIXED_PRODUCT, None),
    (StateMode.RANDOM_REAL_PRODUCT, FieldTag.REAL),
    (StateMode.RANDOM_COMPLEX_PRODUCT, FieldTag.COMPLEX),
], ids=["fixed", "random-real", "random-complex"])
@pytest.mark.parametrize("ensemble", [EnsembleTag.CUE, EnsembleTag.COE], ids=["cue", "coe"])
@pytest.mark.parametrize("parallelism", [1, 2])
def test_block_draws_equal_stream_draws_bitwise(monkeypatch, ensemble, state, field_tag,
                                                parallelism):
    # chunks of 37 start off the 16-sample block grid: 100 samples make
    # blocks at 0, 16, 32 | 37, 53, 69 | 74, 90
    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 37)
    real = montecarlo.sample_block
    drawn = {}

    def recorded(ensemble, dims, field_tag, streams, first, count):
        u, psi = real(ensemble, dims, field_tag, streams, first, count)
        for k in range(count):
            drawn[first + k] = (u[k], None if psi is None else psi[k])
        return u, psi

    monkeypatch.setattr(montecarlo, "sample_block", recorded)
    # d = 1, a small d and the benchmark's d = 20
    for d_a, d_b in [(1, 1), (2, 3), (4, 5)]:
        drawn.clear()
        cfg = small_config(ensemble=ensemble, state_mode=state, d_a=d_a, d_b=d_b, n_max=2, samples=100)
        run_experiment(cfg, parallelism=parallelism)
        assert sorted(drawn) == list(range(cfg.samples))
        for i, (u, psi) in drawn.items():
            u_ref, psi_ref = oracles.stream_draw(cfg.master_seed, i, d_a, d_b, ensemble, field_tag)
            assert np.array_equal(u, u_ref), (d_a, d_b, i)
            if field_tag is None:
                assert psi is None
            else:
                assert np.array_equal(psi, psi_ref), (d_a, d_b, i)


def test_metadata_stage_timings_cover_wall_time():
    table = run_experiment(small_config(samples=2_000))
    timings = table.metadata["timings"]
    assert set(timings) == {"sample_s", "decompose_s", "observe_s", "accumulate_s"}
    assert all(t > 0 for t in timings.values())
    wall = table.metadata["wall_seconds"]
    assert abs(sum(timings.values()) - wall) <= 0.05 * wall


def test_metadata_numerics_merge_over_blocks_and_chunks(monkeypatch):
    # pretend every block needed one decomposition redo: 600 samples in chunks of
    # 37 make 16 chunks of 3 blocks (16 + 16 + 5) and one 8-sample chunk
    real = montecarlo.decompose_block

    def one_redo(*args, **kwargs):
        block = real(*args, **kwargs)
        block.redos = 1
        return block

    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 37)
    monkeypatch.setattr(montecarlo, "decompose_block", one_redo)
    cfg = small_config()
    numerics = run_experiment(cfg).metadata["numerics"]
    assert numerics["decomposition_redos"] == 16 * 3 + 1
    assert 0 < numerics["max_residual"] < 1e-10
    assert numerics["resonant_samples"] == 0
    # the smallest circular eigenphase gap over all 600 samples, from eigvals
    us, _ = sample_block(cfg.ensemble, cfg.dims, None, PhiloxStreams(cfg.master_seed), 0,
                         cfg.samples)
    phases = np.sort(np.mod(np.angle(np.linalg.eigvals(us)), 2 * np.pi), axis=-1)
    gaps = np.diff(phases, axis=-1, append=phases[:, :1] + 2 * np.pi)
    assert abs(numerics["min_phase_gap"] - gaps.min()) < 1e-10


def test_metadata_reports_package_version():
    table = run_experiment(small_config(samples=2, n_max=1))
    assert table.metadata["version"] == entpower.__version__


def test_metadata_reports_run_environment(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    cfg = small_config()  # 600 samples = 2 chunks, so parallelism 2 uses the pool
    table = run_experiment(cfg, parallelism=2)
    env = table.metadata["env"]
    assert set(env) == {"python", "numpy", "cpu_count", "parallelism", "thread_env",
                        "blas_threads"}
    assert env["python"] == ".".join(map(str, sys.version_info[:3]))
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count()
    assert env["parallelism"] == 2
    assert env["thread_env"] == {"OMP_NUM_THREADS": "1"}
    blas = montecarlo._openblas()
    assert env["blas_threads"] == ({"before": blas[0](), "run": 1} if blas else {})
    rate = table.metadata["samples_per_second"]
    assert isinstance(rate, float)
    assert rate == pytest.approx(cfg.samples / table.metadata["wall_seconds"])


def test_failing_chunk_cancels_chunks_not_started(monkeypatch):
    # 8 chunks of one block each; chunk 0's decomposition fails, and the
    # others are slowed so that the pool could not finish them unasked
    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", montecarlo.BLOCK_SIZE)
    cfg = small_config(samples=8 * montecarlo.BLOCK_SIZE)
    first = sample_block(cfg.ensemble, cfg.dims, None, PhiloxStreams(cfg.master_seed), 0, 1)[0][0]
    real = montecarlo.decompose_block
    started = []

    def failing_first_chunk(u, dims, symmetric):
        started.append(1)
        if np.array_equal(u[0], first):
            raise np.linalg.LinAlgError("chunk 0 failed")
        time.sleep(0.05)
        return real(u, dims, symmetric=symmetric)

    monkeypatch.setattr(montecarlo, "decompose_block", failing_first_chunk)
    with pytest.raises(np.linalg.LinAlgError, match="chunk 0 failed"):
        run_experiment(cfg, parallelism=2)
    assert len(started) < 8


def blas_threads() -> int:
    """The thread count of numpy's OpenBLAS."""
    return montecarlo._openblas()[0]()


@pytest.fixture
def blas_two_threads():
    """numpy's OpenBLAS set to two threads, so that a pin to one shows; reset after."""
    if not montecarlo._openblas():
        pytest.skip("numpy links no OpenBLAS")
    saved = blas_threads()
    set_threads = montecarlo._openblas()[1]
    set_threads(2)
    try:
        yield blas_threads()
    finally:
        set_threads(saved)


def _observing_blas_threads(monkeypatch) -> list:
    """Patch the chunks' observe step to record the BLAS thread count it runs under."""
    seen = []
    real = montecarlo._observe

    def observe(*args):
        seen.append(blas_threads())
        return real(*args)

    monkeypatch.setattr(montecarlo, "_observe", observe)
    return seen


@pytest.mark.parametrize("parallelism", [1, 2])
def test_blas_runs_one_thread_inside_chunks_and_is_restored(monkeypatch, blas_two_threads,
                                                             parallelism):
    seen = _observing_blas_threads(monkeypatch)
    run_experiment(small_config(), parallelism=parallelism)
    assert seen and all(count == 1 for count in seen)
    assert blas_threads() == blas_two_threads


def test_blas_threads_restored_after_failing_chunk(monkeypatch, blas_two_threads):
    # the failing-chunk set-up of test_failing_chunk_cancels_chunks_not_started
    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", montecarlo.BLOCK_SIZE)
    cfg = small_config(samples=8 * montecarlo.BLOCK_SIZE)
    first = sample_block(cfg.ensemble, cfg.dims, None, PhiloxStreams(cfg.master_seed), 0, 1)[0][0]
    real = montecarlo.decompose_block

    def failing_first_chunk(u, dims, symmetric):
        if np.array_equal(u[0], first):
            raise np.linalg.LinAlgError("chunk 0 failed")
        return real(u, dims, symmetric=symmetric)

    monkeypatch.setattr(montecarlo, "decompose_block", failing_first_chunk)
    seen = _observing_blas_threads(monkeypatch)
    for parallelism in (1, 2):
        with pytest.raises(np.linalg.LinAlgError, match="chunk 0 failed"):
            run_experiment(cfg, parallelism=parallelism)
        assert blas_threads() == blas_two_threads
    assert all(count == 1 for count in seen)


def test_concurrent_runs_share_one_blas_pin(monkeypatch, blas_two_threads):
    # runs that overlap in time: a lost update of the pin's depth would
    # restore the counts while another run is inside, or leave them pinned
    seen = _observing_blas_threads(monkeypatch)
    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", montecarlo.BLOCK_SIZE)
    cfg = small_config(samples=4 * montecarlo.BLOCK_SIZE)
    expected = run_experiment(cfg).rows
    results, errors = [], []

    def run():
        try:
            results.append(run_experiment(cfg, parallelism=2).rows)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=run) for _ in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert results == [expected] * 6
    assert all(count == 1 for count in seen)
    assert blas_threads() == blas_two_threads


def test_run_without_openblas_reports_no_blas_threads(monkeypatch):
    # numpy linked to another BLAS: the pin does nothing and the run goes on
    cfg = small_config()  # 600 samples = 2 chunks, so parallelism 2 uses the pool
    expected = run_experiment(cfg).rows
    monkeypatch.setattr(montecarlo, "_openblas", lambda: ())
    table = run_experiment(cfg, parallelism=2)
    assert table.rows == expected
    assert table.metadata["env"]["blas_threads"] == {}


def test_run_leaves_scipys_openblas_alone(tmp_path):
    # a fresh process maps scipy's OpenBLAS beside numpy's and sets it to two
    # threads; a run calls numpy's alone, so it must not pin scipy's
    script = tmp_path / "scipy_openblas.py"
    script.write_text(textwrap.dedent("""\
        import ctypes
        import json
        from entpower import montecarlo
        from entpower.ensembles import EnsembleTag
        from entpower.montecarlo import ExperimentConfig, ExperimentKind, StateMode, run_experiment

        def mapped():
            with open("/proc/self/maps", encoding="utf-8") as fh:
                return {line.split()[-1] for line in fh
                        if "openblas" in line and line.split()[-1].startswith("/")}

        before = mapped()
        import scipy.linalg
        late = sorted(mapped() - before)
        seen = []
        if late:
            lib = ctypes.CDLL(late[0])
            for call in montecarlo._OPENBLAS_THREAD_CALLS:
                get = getattr(lib, call.format("get"), None)
                set_threads = getattr(lib, call.format("set"), None)
                if get is not None and set_threads is not None:
                    break
            set_threads.argtypes = [ctypes.c_int]
            set_threads(2)
            real = montecarlo._observe

            def observe(*args):
                seen.append(get())
                return real(*args)

            montecarlo._observe = observe
            cfg = ExperimentConfig(ExperimentKind.EP_CURVE, EnsembleTag.CUE,
                                   StateMode.FIXED_PRODUCT, 2, 2, 2, 600, 5)
            run_experiment(cfg, parallelism=2)
        print(json.dumps({"late": late, "seen": seen}))
        """))
    src = str(Path(entpower.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0 and "/proc/self/maps" in done.stderr:
        pytest.skip("no process map to read")
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    if not seen["late"]:
        pytest.skip("importing scipy.linalg mapped no second OpenBLAS")
    assert seen["seen"] and all(count == 2 for count in seen["seen"])


def test_parallel_run_needs_no_main_guard(tmp_path):
    # a plain script with no __main__ guard, as a library caller writes it
    script = tmp_path / "plain.py"
    script.write_text(textwrap.dedent("""\
        from entpower.ensembles import EnsembleTag
        from entpower.montecarlo import ExperimentConfig, ExperimentKind, StateMode, run_experiment
        cfg = ExperimentConfig(ExperimentKind.EP_CURVE, EnsembleTag.CUE, StateMode.FIXED_PRODUCT,
                               2, 3, 4, 600, 11)
        assert run_experiment(cfg, parallelism=2).rows == run_experiment(cfg).rows
        """))
    src = str(Path(entpower.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # in process: the pool leaves no child process and no thread behind
    threads = threading.active_count()
    run_experiment(small_config(), parallelism=2)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(state_mode=StateMode.NONE)  # ep curve needs a state
    with pytest.raises(ConfigError):
        small_config(kind=ExperimentKind.OPENT_CURVE)  # operator kind with a state
    with pytest.raises(ConfigError):
        small_config(samples=1)
    with pytest.raises(ConfigError):
        small_config(ensemble="cue")  # not an EnsembleTag
    with pytest.raises(ConfigError):
        small_config(master_seed=-4)
    with pytest.raises(ConfigError):
        small_config(master_seed=2**64)
    with pytest.raises(ConfigError):
        run_experiment(small_config(), parallelism=0)


def test_config_echo_is_json_safe():
    echo = small_config().to_dict()
    assert json.dumps(echo)
    assert echo["kind"] == "ep_curve"
    assert echo["ensemble"] == "cue"


def test_minimum_viable_run():
    table = run_experiment(small_config(samples=2, n_max=3))
    assert [r.n for r in table.rows] == [1, 2, 3]
    for row in table.rows:
        assert row.count == 2
        assert np.isfinite(row.stderr)


def test_rows_independent_of_parallelism():
    cfg = small_config()  # 600 samples = 2 chunks
    serial = run_experiment(cfg, parallelism=1)
    parallel = run_experiment(cfg, parallelism=4)
    assert serial.rows == parallel.rows


def test_asymptotic_sentinel_row():
    cfg = small_config(kind=ExperimentKind.ASYMPTOTIC, n_max=1, samples=50)
    table = run_experiment(cfg)
    assert len(table.rows) == 1
    assert table.rows[0].n == -1
    assert 0.0 < table.rows[0].mean < 1.0
    assert table.metadata["numerics"]["resonant_samples"] == 0


def test_asymptotic_resonant_sample_needs_no_time_average(monkeypatch):
    # sample 3588 of master seed 2024 is a real COE draw with a pair-sum
    # resonance within 1e-9; it must go through the pairing formula too
    def no_time_average(*args, **kwargs):
        raise AssertionError("brute-force time average called")

    monkeypatch.setattr(oracles, "time_average_entropy", no_time_average)
    assert not hasattr(montecarlo, "time_average_entropy")
    assert not hasattr(dynamics, "time_average_entropy")
    cfg = small_config(kind=ExperimentKind.ASYMPTOTIC, ensemble=EnsembleTag.COE,
                       state_mode=StateMode.RANDOM_REAL_PRODUCT, d_a=4, d_b=5, n_max=1,
                       samples=3600, master_seed=2024)
    table = run_experiment(cfg)
    row = table.rows[0]
    assert np.isfinite(row.mean) and np.isfinite(row.stderr) and row.stderr > 0
    assert table.metadata["numerics"]["resonant_samples"] == 1


def test_fixed_state_choice_is_statistically_redundant():
    # CUE: the fixed product state gives the curve of random complex ones
    base = small_config(samples=4_000, n_max=6)
    other = small_config(samples=4_000, n_max=6, state_mode=StateMode.RANDOM_COMPLEX_PRODUCT)
    ta, tb = run_experiment(base), run_experiment(other)
    for ra, rb in zip(ta.rows, tb.rows):
        pooled = np.hypot(ra.stderr, rb.stderr)
        assert abs(ra.mean - rb.mean) < 5 * pooled


def test_fixed_real_state_redundant_under_coe():
    # COE: the fixed real product state gives the curve of random real ones
    base = small_config(ensemble=EnsembleTag.COE, samples=4_000, n_max=6)
    other = small_config(ensemble=EnsembleTag.COE, samples=4_000, n_max=6,
                         state_mode=StateMode.RANDOM_REAL_PRODUCT)
    ta, tb = run_experiment(base), run_experiment(other)
    for ra, rb in zip(ta.rows, tb.rows):
        pooled = np.hypot(ra.stderr, rb.stderr)
        assert abs(ra.mean - rb.mean) < 5 * pooled


def test_case_tag_resolution():
    assert small_config().case_tag().value == "a"
    coe = small_config(ensemble=EnsembleTag.COE)
    assert coe.case_tag().value == "c"  # default fixed state is real
    assert small_config(ensemble=EnsembleTag.COE,
                        state_mode=StateMode.RANDOM_COMPLEX_PRODUCT).case_tag().value == "b"
    assert small_config(ensemble=EnsembleTag.COE,
                        state_mode=StateMode.RANDOM_REAL_PRODUCT).case_tag().value == "c"


def test_z_score():
    assert z_score(1.0, 0.5, 1.0) == 0.0
    assert z_score(2.0, 0.5, 1.0) == 2.0
    with pytest.raises(ValueError):
        z_score(1.0, 0.0, 1.0)
