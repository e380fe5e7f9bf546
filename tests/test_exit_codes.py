"""The CLI's exit-code contract, on generated argv and --config files.

Option names, types and choices come from the actions of
``cli.build_parser()``, which builds them from the CLI's option table.  Each
invocation is one of five kinds: valid, one value out of range, one
value of the wrong type, an unknown key, or an option foreign to the
subcommand (for verify: to its --kind).  Every one must exit 0-4 with
at most one line on stderr and no traceback; the four invalid kinds
exit 2 before any output.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entpower import cli

_, SUBPARSERS = cli.build_parser()
# each subcommand's options by dest; --config carries the config file itself
OPTIONS = {command: {a.dest: a for a in parser._actions if a.option_strings
                     and a.dest not in ("help", "config")}
           for command, parser in SUBPARSERS.items()}
ACTIONS = {dest: a for options in OPTIONS.values() for dest, a in options.items()}
# the accepted range of each numeric option, cut down so that a run takes
# milliseconds: d = da * db <= 6 and samples <= 64.  Values below the
# range (and for seed, above it) are out of range.
RANGES = {"da": (1, 6), "db": (1, 6), "nmax": (1, 12), "samples": (2, 64),
          "seed": (0, 2**64 - 1), "parallelism": (1, 2), "gate_sigma": (0.5, 8.0)}
KINDS = ["valid", "out-of-range", "wrong-type", "unknown-key", "foreign"]


def takes(command, kind):
    """The options a run of `command` takes; verify takes its --kind's and its own."""
    options = OPTIONS[command]
    if command != "verify":
        return options
    own = OPTIONS[kind].keys() | {"kind", "gate_sigma"}
    return {dest: a for dest, a in options.items() if dest in own}


def valid_value(dest, action, out_path):
    if action.choices is not None:
        return st.sampled_from(action.choices)
    if dest == "out":
        return st.just(str(out_path))
    lo, hi = RANGES[dest]
    if action.type is float:
        # a JSON integer also serves a float flag
        return st.one_of(st.floats(lo, hi), st.integers(math.ceil(lo), math.floor(hi)))
    return st.integers(lo, hi)


def out_of_range_value(dest, action):
    if action.choices is not None:
        wrong = st.integers() if action.type is int else st.text(max_size=8)
        return wrong.filter(lambda v: v not in action.choices)
    lo, _ = RANGES[dest]
    if action.type is float:
        return st.one_of(st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf, -math.inf]),
                         st.integers(2**1024, 2**1100))
    below = st.integers(lo - 2**70, lo - 1)
    return st.one_of(below, st.integers(2**64, 2**70)) if dest == "seed" else below


def parses_as(kind, text):
    try:
        kind(text)
    except ValueError:
        return False
    return True


def wrong_type_value(action, in_argv):
    kind = action.type or str
    if in_argv:
        return st.text(max_size=8).filter(lambda v: not parses_as(kind, v))
    values = st.one_of(st.text(max_size=8), st.floats(), st.integers(), st.booleans(), st.none(),
                       st.lists(st.integers(), max_size=2))
    accepted = (int, float) if kind is float else kind
    return values.filter(lambda v: isinstance(v, bool) or not isinstance(v, accepted))


def is_unknown(name):
    # a prefix of a flag is unknown too, as the parser takes no abbreviation;
    # --help and --config are flags of every subcommand
    return name.replace("-", "_") not in ACTIONS.keys() | {"help", "config"}


@st.composite
def invocations(draw, kind, out_path):
    """An invocation of the given kind: argv without --config, and the config file's object.

    Each option goes either in argv or in the config file.
    """
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    run_kind = draw(st.sampled_from(ACTIONS["kind"].choices)) if command == "verify" else None
    options = takes(command, run_kind)
    da = draw(st.integers(1, 6))
    values = {"da": da, "db": draw(st.integers(1, 6 // da))}
    if run_kind is not None:
        values["kind"] = run_kind
    if "samples" in options:
        values["samples"] = draw(st.integers(*RANGES["samples"]))
    for dest, action in options.items():
        if dest not in values and draw(st.booleans()):
            values[dest] = draw(valid_value(dest, action, out_path))
    mistyped = None
    if kind == "out-of-range":
        dest = draw(st.sampled_from(sorted(d for d in options if d != "out")))
        values[dest] = draw(out_of_range_value(dest, options[dest]))
    elif kind == "wrong-type":
        mistyped = draw(st.sampled_from(sorted(options)))
    elif kind == "unknown-key":
        dest = draw(st.text(min_size=1, max_size=12).filter(is_unknown))
        values[dest] = draw(st.integers(0, 9))
    elif kind == "foreign":
        dest = draw(st.sampled_from(sorted(ACTIONS.keys() - options.keys())))
        values[dest] = draw(valid_value(dest, ACTIONS[dest], out_path))
    in_argv = {dest: draw(st.booleans()) for dest in values}
    if mistyped is not None:
        # every argv value is a string: only a number flag can be mistyped there
        action = options[mistyped]
        in_argv[mistyped] = action.type in (int, float) and draw(st.booleans())
        values[mistyped] = draw(wrong_type_value(action, in_argv[mistyped]))
    argv = [command]
    for dest, value in values.items():
        if in_argv[dest]:
            argv += ["--" + dest.replace("_", "-"), str(value)]
    config = {dest: value for dest, value in values.items() if not in_argv[dest]}
    return argv, config


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_invocation_keeps_the_exit_code_contract(kind, data):
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "out.csv"
        argv, config = data.draw(invocations(kind, out_path), label="argv, config")
        if config or data.draw(st.booleans(), label="empty config file"):
            path = Path(tmp) / "run.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        err = err.getvalue()
        assert code in range(5)
        assert "Traceback" not in err
        assert len(err.splitlines()) <= 1, err
        if kind != "valid":
            assert code == 2
            assert out.getvalue() == ""
            assert not out_path.exists()
