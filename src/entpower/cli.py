"""Command-line front end.

Subcommands map one-to-one onto the experiment kinds (ep-curve,
opent-curve, form-factor with --moment, asymptotic) plus `table` for
the closed-form values, `verify` for statistically gated reproduction
runs, and `fit` for the form-factor model of the CUE entropy curve.

Flag values override config-file values (--config, flat JSON keyed by
flag names); defaults fill the rest.  --seed falls back to the
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
from dataclasses import dataclass
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
    "CliInvocation",
    "parse_invocation",
    "emit_results",
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
_ENSEMBLES = {"cue": EnsembleTag.CUE, "coe": EnsembleTag.COE}
_DEFAULT_SAMPLES = 100_000
# verify passes a row within this of its target whatever its stderr: rows
# that are exact up to roundoff (d_A = 1, d = 1) have a stderr near 0
_ROUNDOFF_FLOOR = 1e-12


@dataclass
class CliInvocation:
    subcommand: str
    flags: dict
    config_path: str | None
    # the subcommand's argparse actions by dest: the one source of option types
    actions: dict


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ConfigError, which main reports on one line."""

    def error(self, message):
        # argparse quotes unrecognized arguments verbatim, line breaks included
        raise ConfigError(f"{self.prog}: " + "\\n".join(message.splitlines()))


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The entpower parser and its subcommand parsers by name, built once per process.

    Every call returns the same parsers: parsing leaves them unchanged,
    and callers must not add to them.
    """
    parser = _Parser(
        prog="entpower",
        description="Monte Carlo curves and closed-form checks for the "
                    "entangling power of iterated CUE/COE unitaries.")
    sub = parser.add_subparsers(dest="command", required=True)

    # verify and fit print gate lines to stdout, so only the experiment
    # subcommands and table take --out and --format
    def add_output(sp):
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=["csv", "json"])

    def add_common(sp, *, state: bool, nmax: bool = True):
        sp.add_argument("--da", type=int, help="subsystem A dimension")
        sp.add_argument("--db", type=int, help="subsystem B dimension")
        if nmax:
            sp.add_argument("--nmax", type=int, help="largest iteration count (default 2*da*db)")
        sp.add_argument("--samples", type=int, help=f"Monte Carlo samples (default {_DEFAULT_SAMPLES})")
        sp.add_argument("--seed", type=int, help="master seed (default: RMT_SEED env, then 0)")
        sp.add_argument("--ensemble", choices=sorted(_ENSEMBLES))
        if state:
            sp.add_argument("--state", choices=sorted(_STATE_MODES),
                            help="initial product state mode (default fixed)")
        sp.add_argument("--parallelism", type=int, help="worker threads (default 1)")
        sp.add_argument("--config", help="flat JSON file with flag-name keys")

    sp = sub.add_parser("ep-curve", help="mean linear entropy of U^n psi vs n")
    add_common(sp, state=True)
    add_output(sp)
    sp = sub.add_parser("opent-curve", help="mean operator entanglement of U^n vs n")
    add_common(sp, state=False)
    add_output(sp)
    sp = sub.add_parser("form-factor", help="mean |tr U^n|^2 (or ^4) vs n")
    add_common(sp, state=False)
    add_output(sp)
    sp.add_argument("--moment", type=int, choices=[2, 4], help="trace moment (default 2)")
    sp = sub.add_parser("asymptotic", help="mean infinite-time entropy (single row, n = -1)")
    add_common(sp, state=True, nmax=False)
    add_output(sp)

    sp = sub.add_parser("table", help="closed-form reference values for given dims")
    sp.add_argument("--da", type=int)
    sp.add_argument("--db", type=int)
    add_output(sp)
    sp.add_argument("--config", help="flat JSON file with flag-name keys")

    sp = sub.add_parser("verify", help="run an experiment and gate it against closed forms")
    add_common(sp, state=True)
    sp.add_argument("--kind", choices=["ep-curve", "opent-curve", "form-factor", "asymptotic"])
    sp.add_argument("--moment", type=int, choices=[2, 4])
    sp.add_argument("--gate-sigma", type=float, help="|z| threshold (default 5.0)")

    sp = sub.add_parser("fit", help="least-squares form-factor model of the CUE ep-curve")
    add_common(sp, state=True)
    return parser, sub.choices


def parse_invocation(argv: list[str]) -> CliInvocation:
    parser, subparsers = build_parser()
    ns = parser.parse_args(argv)
    flags = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    actions = {a.dest: a for a in subparsers[ns.command]._actions}
    return CliInvocation(ns.command, flags, getattr(ns, "config", None), actions)


def _config_value(key: str, value, action: argparse.Action):
    """A config-file value checked against the type and choices of its flag."""
    kind = action.type or str
    accepted = (int, float) if kind is float else kind
    # JSON true/false arrive as bools, which Python counts as ints
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
    try:
        value = kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"config key {key!r} is too large for {kind.__name__}") from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise ConfigError(f"config key {key!r} must be one of {choices}, got {value!r}")
    return value


def _merged_options(inv: CliInvocation) -> dict:
    merged = dict(inv.flags)
    if inv.config_path is None:
        return {k: v for k, v in merged.items() if v is not None}
    with open(inv.config_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {inv.config_path} must hold a JSON object")
    for key, value in raw.items():
        dest = key.replace("-", "_")
        if dest not in merged:
            raise ConfigError(f"config key {key!r} is not a flag of subcommand {inv.subcommand!r}")
        value = _config_value(key, value, inv.actions[dest])
        if merged[dest] is None:
            merged[dest] = value
    return {k: v for k, v in merged.items() if v is not None}


def _default_seed() -> int:
    env = os.environ.get("RMT_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"RMT_SEED must be an integer, got {env!r}") from None


def _experiment_config(kind: ExperimentKind, opts: dict) -> ExperimentConfig:
    da, db = opts.get("da"), opts.get("db")
    if da is None or db is None:
        raise ConfigError("--da and --db are required")
    if kind is ExperimentKind.ASYMPTOTIC:
        n_max = 1
    else:
        n_max = opts.get("nmax", 2 * da * db)
    state = StateMode.NONE
    if kind in (ExperimentKind.EP_CURVE, ExperimentKind.ASYMPTOTIC):
        state = _STATE_MODES[opts.get("state", "fixed")]
    return ExperimentConfig(
        kind=kind,
        ensemble=_ENSEMBLES[opts.get("ensemble", "cue")],
        state_mode=state,
        d_a=da,
        d_b=db,
        n_max=n_max,
        samples=opts.get("samples", _DEFAULT_SAMPLES),
        master_seed=opts.get("seed", _default_seed()),
    )


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


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def emit_results(table: ResultTable, fmt: str, stream) -> None:
    """Write a result table to a text stream as CSV (rows only) or JSON (with metadata)."""
    if fmt == "json":
        stream.write(table_to_json(table))
    elif fmt == "csv":
        stream.write(table_to_csv(table))
    else:
        raise ConfigError(f"unknown format {fmt!r}")


_COMMAND_KINDS = {
    "ep-curve": ExperimentKind.EP_CURVE,
    "opent-curve": ExperimentKind.OPENT_CURVE,
    "form-factor": ExperimentKind.FORM_FACTOR,
    "asymptotic": ExperimentKind.ASYMPTOTIC,
}


def _resolve_kind(name: str, opts: dict) -> ExperimentKind:
    kind = _COMMAND_KINDS[name]
    if kind is ExperimentKind.FORM_FACTOR and opts.get("moment", 2) == 4:
        return ExperimentKind.FOURTH_MOMENT
    return kind


def _cmd_experiment(inv: CliInvocation, opts: dict) -> int:
    cfg = _experiment_config(_resolve_kind(inv.subcommand, opts), opts)
    parallelism = check_parallelism(opts.get("parallelism", 1))
    out = opts.get("out")
    # opened after every usage check and before sampling, so that a usage
    # error leaves no file behind and a bad path fails before any draw
    stream = sys.stdout if out is None else open(out, "w", encoding="utf-8", newline="\n")
    try:
        table = run_experiment(cfg, parallelism=parallelism)
        emit_results(table, opts.get("format", "csv"), stream)
    except BaseException:
        # a failed run leaves no file behind either; a device or pipe given
        # as --out is not the run's to delete
        if stream is not sys.stdout and stat.S_ISREG(os.fstat(stream.fileno()).st_mode):
            stream.close()
            os.remove(out)
        raise
    finally:
        if stream is not sys.stdout:
            stream.close()
    return 0


def _closed_forms(da: int, db: int) -> list[tuple[str, Fraction]]:
    return [
        ("ep1_a", ep1(CaseTag.A_CUE_COMPLEX, da, db)),
        ("ep1_bc", ep1(CaseTag.B_COE_COMPLEX, da, db)),
        ("opent_cue", op_ent_cue(da, db)),
        ("epinf_a", ep_inf(CaseTag.A_CUE_COMPLEX, da, db)),
        ("epinf_b", ep_inf(CaseTag.B_COE_COMPLEX, da, db)),
        ("epinf_c", ep_inf(CaseTag.C_COE_REAL, da, db)),
    ]


def _cmd_table(opts: dict) -> int:
    da, db = opts.get("da"), opts.get("db")
    if da is None or db is None:
        raise ConfigError("--da and --db are required")
    values = _closed_forms(da, db)
    if opts.get("format", "csv") == "json":
        payload = {
            "d_a": da,
            "d_b": db,
            "values": {
                name: {"numerator": v.numerator, "denominator": v.denominator,
                       "value": float(v)}
                for name, v in values
            },
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["quantity,numerator,denominator,value"]
        for name, v in values:
            lines.append(f"{name},{v.numerator},{v.denominator},{_fmt(float(v))}")
        text = "\n".join(lines) + "\n"
    _write_text(text, opts.get("out"))
    return 0


def _cmd_verify(opts: dict) -> int:
    kind_name = opts.get("kind")
    if kind_name is None:
        raise ConfigError("verify requires --kind")
    # verify takes the union of its kinds' options; each run takes its own
    kind_dests = {a.dest for a in build_parser()[1][kind_name]._actions}
    foreign = sorted(opts.keys() - kind_dests - {"kind", "gate_sigma"})
    if foreign:
        names = ", ".join("--" + dest.replace("_", "-") for dest in foreign)
        raise ConfigError(f"verify --kind {kind_name} takes no {names}")
    cfg = _experiment_config(_resolve_kind(kind_name, opts), opts)
    targets = exact_targets(cfg)
    if not targets:
        raise ConfigError(
            f"no closed-form target for {kind_name} with ensemble {cfg.ensemble.value} "
            f"and state mode {cfg.state_mode.value}")
    gate = opts.get("gate_sigma", 5.0)
    if not (math.isfinite(gate) and gate > 0):
        raise ConfigError(f"--gate-sigma must be finite and > 0, got {gate}")
    table = run_experiment(cfg, parallelism=opts.get("parallelism", 1))
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
    if opts.get("ensemble", "cue") != "cue":
        raise ConfigError("the form-factor model is a cue-ensemble statement; use --ensemble cue")
    cfg = _experiment_config(ExperimentKind.EP_CURVE, opts)
    d = cfg.d_a * cfg.d_b
    if cfg.n_max < 2 * d:
        raise ConfigError(f"fit needs the plateau resolved: --nmax at least {2 * d}")
    table = run_experiment(cfg, parallelism=opts.get("parallelism", 1))
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
    opts = {}
    try:
        inv = parse_invocation(sys.argv[1:] if argv is None else argv)
        opts = _merged_options(inv)
        if inv.subcommand == "table":
            return _cmd_table(opts)
        if inv.subcommand == "verify":
            return _cmd_verify(opts)
        if inv.subcommand == "fit":
            return _cmd_fit(opts)
        return _cmd_experiment(inv, opts)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        d = opts.get("da", 1) * opts.get("db", 1)
        print(f"error: d = {d} is too large for memory: {str(exc) or 'MemoryError'}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
