"""Fuzzing of the command-line flags, run in process.

Each case is an argument vector read off the parser itself: an optional
``--out``, a subcommand, its positional arguments, and a random subset of
its options, each with a value where it takes one.  A value is a bundled
``@name`` for a file (of the kind the argument reads, where it reads
one kind), a suite name for ``verify``, a small integer for
``-n`` and ``--class``, or a choice of the option, and one time in eight a
junk token instead.  One more token, junk or any option string, may be
inserted anywhere.  Every run must end with exit code 0, 1 or 2 and
raise nothing, and an exit 2 must explain itself on stderr, as an input
error or an argparse usage message.  ``corpus export`` is left out, since
it writes files.  Every suite is drawn, and an unknown name among them:
each takes under 20 ms in process.
"""

import argparse

from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import run_cli
from superlie.cli import build_parser
from superlie.corpus import file_names, lie_algebra
from superlie.suites import SUITES

JUNK = ["", "-", "--", "-x", "--nope", "@", "@nope", "@../heis", "nope.json", ".", "/",
        "identity", "1e3", "-1.5", "a\x00b", "é"]
NAMES = [f"@{name[:-len('.json')]}" for name in file_names()]


def bundled_lie(name: str) -> bool:
    try:
        return bool(lie_algebra(name[1:]))
    except KeyError:
        return False


# the bundled files an argument reads, by its dest; any other file argument
# draws from every name
FILES = {"m": [n for n in NAMES if bundled_lie(n)],
         "act_mn": [n for n in NAMES if n.endswith("_adjoint")],
         "hopf": [n for n in NAMES if n.endswith("_pres")],
         "nonabelian": [n for n in NAMES if n.endswith("_crossed")] + ["identity"]}
FILES.update(n=FILES["m"], act_nm=FILES["act_mn"])
NUMBERS = [str(n) for n in range(-2, 5)]
PARSER = build_parser()
SUBCOMMANDS = next(a for a in PARSER._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
OPTIONS = sorted({s for p in (PARSER, *SUBCOMMANDS.values())
                  for a in p._actions for s in a.option_strings})


def values(action: argparse.Action) -> list[str]:
    """The meaningful values of an argument: never ``export``."""
    if action.dest == "suite":
        return sorted(SUITES) + ["no-such-suite"]
    if action.choices is not None:
        return [c for c in action.choices if c != "export"]
    if action.type is int:
        return NUMBERS
    return FILES.get(action.dest, NAMES)


@st.composite
def argvs(draw) -> list[str]:
    def value(action):
        junk = draw(st.integers(0, 7)) == 0
        return draw(st.sampled_from(JUNK if junk else values(action)))

    argv = draw(st.sampled_from([[], [], ["--out", "json"], ["--out", "text"]]))
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv.append(command)
    for action in SUBCOMMANDS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            if action.nargs != "?" or draw(st.booleans()):
                argv.append(value(action))
        elif draw(st.booleans()):
            argv.append(draw(st.sampled_from(action.option_strings)))
            if action.nargs != 0:
                argv.append(value(action))
    for token in draw(st.lists(st.sampled_from(JUNK + OPTIONS), max_size=1)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_flags_exit_0_1_or_2_and_explain_exit_2(argv):
    r = run_cli(*argv)
    assert r.returncode in (0, 1, 2), (argv, r)
    if r.returncode == 2:
        assert r.stderr.startswith("input error: ") or "usage: superlie" in r.stderr, (argv, r)
