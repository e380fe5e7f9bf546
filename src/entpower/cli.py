"""Command-line front end.

Subcommands map one-to-one onto the experiment kinds (ep-curve,
opent-curve, form-factor with --moment, asymptotic) plus `table` for
the closed-form values, `verify` for statistically gated reproduction
runs, and `fit` for the form-factor model of the CUE entropy curve.

`_OPTIONS` is the one source of option types and defaults.  Flag values
(spelled in full) override config-file values (--config, flat JSON
keyed by flag names); defaults fill the rest.  --seed falls back to the
RMT_SEED environment variable, then 0.  Exit codes: 0 pass, 1
statistical gate failure, 2 usage or config error (dimensions too
large for memory included), 3 I/O error, 4 a sample's decomposition
failed (the error line names the master seed and sample index).  Each
failure, argument parsing included, is one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from fractions import Fraction

from .closedform import CaseTag, ep1, ep_inf, gate_form_factor_fit, op_ent_cue
from .ensembles import EnsembleTag
from .montecarlo import (
    ConfigError,
    ExperimentConfig,
    ExperimentKind,
    NumericalError,
    ResultRow,
    ResultTable,
    StateMode,
    check_parallelism,
    exact_targets,
    run_experiment,
    z_score,
)

__all__ = [
    "table_to_csv",
    "table_to_json",
    "table_from_json",
    "main",
]

_STATE_MODES = {
    "fixed": StateMode.FIXED_PRODUCT,
    "random-complex": StateMode.RANDOM_COMPLEX_PRODUCT,
    "random-real": StateMode.RANDOM_REAL_PRODUCT,
}
_COMMAND_KINDS = {
    "ep-curve": ExperimentKind.EP_CURVE,
    "opent-curve": ExperimentKind.OPENT_CURVE,
    "form-factor": ExperimentKind.FORM_FACTOR,
    "asymptotic": ExperimentKind.ASYMPTOTIC,
}
# verify passes a row within this of its target whatever its stderr: rows
# that are exact up to roundoff (d_A = 1, d = 1) have a stderr near 0
_ROUNDOFF_FLOOR = 1e-12


# Every option by dest: (type, choices, default, help).  A default of None
# means none (da, db, out, kind) or one the run works out (nmax, seed).
# The table holds no ranges: ExperimentConfig, check_parallelism and
# verify's --gate-sigma check are the one place each range is checked,
# whichever way the value came in.
_OPTIONS = {
    "da": (int, None, None, "subsystem A dimension"),
    "db": (int, None, None, "subsystem B dimension"),
    "nmax": (int, None, None, "largest iteration count (default 2*da*db)"),
    "samples": (int, None, 100_000, "Monte Carlo samples"),
    "seed": (int, None, None, "master seed (default: RMT_SEED env, then 0)"),
    "ensemble": (str, tuple(sorted(tag.value for tag in EnsembleTag)), "cue", "unitary ensemble"),
    "state": (str, tuple(sorted(_STATE_MODES)), "fixed", "initial product state mode"),
    "parallelism": (int, None, 1, "worker threads"),
    "kind": (str, tuple(_COMMAND_KINDS), None, "experiment to run and gate"),
    "moment": (int, (2, 4), 2, "trace moment"),
    "gate_sigma": (float, None, 5.0, "|z| threshold"),
    "out": (str, None, None, "output path (default stdout)"),
    "format": (str, ("csv", "json"), "csv", "output format"),
}
# Every subcommand by name: (help, the dests it takes besides --config).
# verify and fit print gate lines to stdout, so only the experiment
# subcommands and table take --out and --format.  verify takes the
# options of every --kind; a run takes those of its own.
_SUBCOMMANDS = {
    "ep-curve": ("mean linear entropy of U^n psi vs n",
                 "da db nmax samples seed ensemble state parallelism out format"),
    "opent-curve": ("mean operator entanglement of U^n vs n",
                    "da db nmax samples seed ensemble parallelism out format"),
    "form-factor": ("mean |tr U^n|^2 (or ^4) vs n",
                    "da db nmax samples seed ensemble parallelism out format moment"),
    "asymptotic": ("mean infinite-time entropy (single row, n = -1)",
                   "da db samples seed ensemble state parallelism out format"),
    "table": ("closed-form reference values for given dims", "da db out format"),
    "verify": ("run an experiment and gate it against closed forms",
               "da db nmax samples seed ensemble state parallelism kind moment gate_sigma"),
    "fit": ("least-squares form-factor model of the CUE ep-curve",
            "da db nmax samples seed ensemble state parallelism"),
}


def _takes(command: str) -> set[str]:
    return set(_SUBCOMMANDS[command][1].split())


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ConfigError, which main reports on one line."""

    def error(self, message):
        # argparse quotes unrecognized arguments verbatim, line breaks included
        raise ConfigError(f"{self.prog}: " + "\\n".join(message.splitlines()))


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The entpower parser and its subcommand parsers by name, built once per process.

    Every call returns the same parsers: parsing leaves them unchanged,
    and callers must not add to them.  Abbreviated flags are errors, as
    config keys must match exactly too.
    """
    parser = _Parser(
        prog="entpower", allow_abbrev=False,
        description="Monte Carlo curves and closed-form checks for the "
                    "entangling power of iterated CUE/COE unitaries.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, dests) in _SUBCOMMANDS.items():
        sp = sub.add_parser(command, help=summary, allow_abbrev=False)
        for dest in dests.split():
            kind, choices, default, text = _OPTIONS[dest]
            if default is not None:
                text += f" (default {default})"
            sp.add_argument("--" + dest.replace("_", "-"), type=kind, choices=choices, help=text)
        sp.add_argument("--config", help="flat JSON file with flag-name keys")
    return parser, sub.choices


def _config_value(key: str, value, dest: str):
    """A config-file value checked against the type and choices of its option."""
    kind, choices, _, _ = _OPTIONS[dest]
    accepted = (int, float) if kind is float else kind
    # JSON true/false arrive as bools, which Python counts as ints
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
    try:
        value = kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"config key {key!r} is too large for {kind.__name__}") from None
    if choices is not None and value not in choices:
        choices = ", ".join(map(repr, choices))
        raise ConfigError(f"config key {key!r} must be one of {choices}, got {value!r}")
    return value


def _merged_options(command: str, flags: dict, config_path: str | None) -> dict:
    """The run's options: flags over config values over the table's defaults.

    flags holds every dest of the subcommand, None where no flag was
    given.  Defaults fill exactly the options the run takes; for
    verify, those of its --kind, where an option of another kind is an
    error.
    """
    merged = dict(flags)
    if config_path is not None:
        with open(config_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        for key, value in raw.items():
            dest = key.replace("-", "_")
            if dest not in merged:
                raise ConfigError(f"config key {key!r} is not a flag of subcommand {command!r}")
            value = _config_value(key, value, dest)
            if merged[dest] is None:
                merged[dest] = value
    opts = {k: v for k, v in merged.items() if v is not None}
    takes = _takes(command)
    if command == "verify":
        if "kind" not in opts:
            raise ConfigError("verify requires --kind")
        takes &= _takes(opts["kind"]) | {"kind", "gate_sigma"}
        foreign = sorted(opts.keys() - takes)
        if foreign:
            names = ", ".join("--" + dest.replace("_", "-") for dest in foreign)
            raise ConfigError(f"verify --kind {opts['kind']} takes no {names}")
    defaults = {dest: _OPTIONS[dest][2] for dest in takes if _OPTIONS[dest][2] is not None}
    return defaults | opts


def _seed(opts: dict) -> int:
    """--seed or the config's seed; RMT_SEED, then 0, only when neither is given."""
    if "seed" in opts:
        return opts["seed"]
    env = os.environ.get("RMT_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"RMT_SEED must be an integer, got {env!r}") from None


def _dims(opts: dict) -> tuple[int, int]:
    if "da" not in opts or "db" not in opts:
        raise ConfigError("--da and --db are required")
    return opts["da"], opts["db"]


def _experiment_config(name: str, opts: dict) -> ExperimentConfig:
    """The run of experiment subcommand (or verify --kind) `name` with options `opts`."""
    da, db = _dims(opts)
    kind = ExperimentKind.FOURTH_MOMENT if opts.get("moment") == 4 else _COMMAND_KINDS[name]
    return ExperimentConfig(
        kind=kind,
        ensemble=EnsembleTag(opts["ensemble"]),
        # a run has a state iff its subcommand (verify: its --kind) takes --state
        state_mode=_STATE_MODES[opts["state"]] if "state" in opts else StateMode.NONE,
        d_a=da,
        d_b=db,
        n_max=1 if kind is ExperimentKind.ASYMPTOTIC else opts.get("nmax", 2 * da * db),
        samples=opts["samples"],
        master_seed=_seed(opts),
    )


def _run(cfg: ExperimentConfig, parallelism: int) -> ResultTable:
    try:
        return run_experiment(cfg, parallelism=parallelism)
    except MemoryError as exc:
        raise ConfigError(f"d = {cfg.d_a * cfg.d_b} is too large for memory: "
                          f"{str(exc) or 'MemoryError'}") from None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def table_to_csv(table: ResultTable) -> str:
    lines = ["n,mean,stderr,count"]
    for row in table.rows:
        lines.append(f"{row.n},{_fmt(row.mean)},{_fmt(row.stderr)},{row.count}")
    return "\n".join(lines) + "\n"


def table_to_json(table: ResultTable) -> str:
    payload = {
        "metadata": table.metadata,
        "rows": [{"n": r.n, "mean": r.mean, "stderr": r.stderr, "count": r.count}
                 for r in table.rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def table_from_json(text: str) -> ResultTable:
    obj = json.loads(text)
    rows = [ResultRow(r["n"], r["mean"], r["stderr"], r["count"]) for r in obj["rows"]]
    return ResultTable(rows, obj["metadata"])


def _write_out(out: str | None, text) -> int:
    """Write text() to the file `out`, or to stdout when out is None.

    The caller makes its usage checks first; the file is opened before
    text() is called, so that a bad path fails before any draw, and a
    text() that fails leaves no file behind.
    """
    stream = sys.stdout if out is None else open(out, "w", encoding="utf-8", newline="\n")
    try:
        stream.write(text())
    except BaseException:
        # a device or pipe given as --out is not the run's to delete
        if stream is not sys.stdout and stat.S_ISREG(os.fstat(stream.fileno()).st_mode):
            stream.close()
            os.remove(out)
        raise
    finally:
        if stream is not sys.stdout:
            stream.close()
    return 0


def _cmd_experiment(command: str, opts: dict) -> int:
    cfg = _experiment_config(command, opts)
    parallelism = check_parallelism(opts["parallelism"])
    # CSV holds the rows only, JSON the metadata too
    emit = table_to_json if opts["format"] == "json" else table_to_csv
    return _write_out(opts.get("out"), lambda: emit(_run(cfg, parallelism)))


def _closed_forms(da: int, db: int) -> list[tuple[str, Fraction]]:
    return [
        ("ep1_a", ep1(CaseTag.A_CUE_COMPLEX, da, db)),
        ("ep1_bc", ep1(CaseTag.B_COE_COMPLEX, da, db)),
        ("opent_cue", op_ent_cue(da, db)),
        ("epinf_a", ep_inf(CaseTag.A_CUE_COMPLEX, da, db)),
        ("epinf_b", ep_inf(CaseTag.B_COE_COMPLEX, da, db)),
        ("epinf_c", ep_inf(CaseTag.C_COE_REAL, da, db)),
    ]


def _table_text(da: int, db: int, fmt: str) -> str:
    values = _closed_forms(da, db)
    if fmt == "json":
        payload = {
            "d_a": da,
            "d_b": db,
            "values": {
                name: {"numerator": v.numerator, "denominator": v.denominator,
                       "value": float(v)}
                for name, v in values
            },
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = ["quantity,numerator,denominator,value"]
    for name, v in values:
        lines.append(f"{name},{v.numerator},{v.denominator},{_fmt(float(v))}")
    return "\n".join(lines) + "\n"


def _cmd_table(opts: dict) -> int:
    da, db = _dims(opts)
    return _write_out(opts.get("out"), lambda: _table_text(da, db, opts["format"]))


def _cmd_verify(opts: dict) -> int:
    cfg = _experiment_config(opts["kind"], opts)
    targets = exact_targets(cfg)
    if not targets:
        raise ConfigError(
            f"no closed-form target for {opts['kind']} with ensemble {cfg.ensemble.value} "
            f"and state mode {cfg.state_mode.value}")
    gate = opts["gate_sigma"]
    if not (math.isfinite(gate) and gate > 0):
        raise ConfigError(f"--gate-sigma must be finite and > 0, got {gate}")
    table = _run(cfg, opts["parallelism"])
    failures = 0
    for n, label, target in targets:
        row = table.row_for(n)
        ok = abs(row.mean - float(target)) <= max(gate * row.stderr, _ROUNDOFF_FLOOR)
        z = z_score(row.mean, row.stderr, target) if row.stderr > 0 else math.nan
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} n={n:>3d} {label:<14s} mean={_fmt(row.mean)} "
              f"stderr={_fmt(row.stderr)} target={target} z={z:+.3f} gate={gate:g} "
              f"floor={_ROUNDOFF_FLOOR:g}")
    print(f"{len(targets) - failures}/{len(targets)} gates passed")
    return 0 if failures == 0 else 1


def _cmd_fit(opts: dict) -> int:
    if opts["ensemble"] != "cue":
        raise ConfigError("the form-factor model is a cue-ensemble statement; use --ensemble cue")
    cfg = _experiment_config("ep-curve", opts)
    d = cfg.d_a * cfg.d_b
    if cfg.n_max < 2 * d:
        raise ConfigError(f"fit needs the plateau resolved: --nmax at least {2 * d}")
    table = _run(cfg, opts["parallelism"])
    gate = gate_form_factor_fit([r.n for r in table.rows], [r.mean for r in table.rows],
                                [r.stderr for r in table.rows], cfg.d_a, cfg.d_b)
    fit = gate.fit
    print(f"c1={_fmt(fit.c1)} c2={_fmt(fit.c2)} c3={_fmt(fit.c3)} c4={_fmt(fit.c4)}")
    print(f"{'PASS' if gate.residual_ok else 'FAIL'} residual_rms={_fmt(fit.residual_rms)} "
          f"pooled_stderr={_fmt(gate.pooled_stderr)} gate=3x")
    print(f"{'PASS' if gate.plateau_ok else 'FAIL'} plateau={_fmt(gate.plateau)} "
          f"target={gate.target} deviation={gate.plateau_deviation:.3f} pooled stderr, gate=3")
    return 0 if gate.residual_ok and gate.plateau_ok else 1


def main(argv: list[str] | None = None) -> int:
    try:
        flags = vars(build_parser()[0].parse_args(sys.argv[1:] if argv is None else argv))
        command, config_path = flags.pop("command"), flags.pop("config")
        opts = _merged_options(command, flags, config_path)
        if command == "table":
            return _cmd_table(opts)
        if command == "verify":
            return _cmd_verify(opts)
        if command == "fit":
            return _cmd_fit(opts)
        return _cmd_experiment(command, opts)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, MemoryError) as exc:  # _run names d in a run's MemoryError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
