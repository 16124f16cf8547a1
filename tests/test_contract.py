"""One contract over the command line: whatever the flags, ``main`` exits 0, or exits 1 with one error line.

Hypothesis draws argv for each command, with numeric text as the flag tests
draw it: numbers as ``repr`` writes them, other scripts' digits, digit group
separators, whitespace and words. Now and then an input or an output option
names a path that no run can use: one holding a NUL, or, for an output, a
symlink loop. About half the time ``--out-dir`` (and for ``simulate``,
``--transcript``) names a path in the example's own folder, spelled with ``.``,
``..``, the run's file names and a regular file, or now and then a
``--transcript`` is ``/dev/full``, which fails the run after it writes its
manifest: a run that exits 1 must leave that folder as it found it, with no
manifest and no directory made. The runs are kept small (``train`` at one
epoch, ``evaluate`` at most 2 rollouts, ``simulate`` on the template backend),
and the HTTP flags come only in combinations that are rejected before any
connection is made.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_config import _FOREIGN_NUMBERS

from caresim.cli import build_parser, main

# text that no numeric flag reads as the number it looks like, or at all
JUNK = [*_FOREIGN_NUMBERS, "", "abc", "0x10", "1e309", "nan", "-inf"]


def often(strategy: st.SearchStrategy, rarely: st.SearchStrategy) -> st.SearchStrategy:
    """``strategy`` about seven draws in eight, else ``rarely``: so about half the runs do work."""
    # one_of would draw each branch about equally often
    return st.sampled_from([strategy] * 7 + [rarely]).flatmap(lambda chosen: chosen)


def numbers(valid: st.SearchStrategy, wild: st.SearchStrategy) -> st.SearchStrategy:
    """Flag text: mostly ``valid`` values as ``repr`` writes them, else a ``wild`` one or junk."""
    return often(valid.map(repr), wild.map(repr) | st.sampled_from(JUNK))


def counts(low: int, high: int) -> st.SearchStrategy:
    """Integer flag text, mostly in [low, high]."""
    return numbers(st.integers(low, high), st.integers(-(2**64), low - 1) | st.integers(high + 1, high + 2))


probabilities = numbers(st.floats(0.0, 1.0), st.floats())
seeds = numbers(st.integers(-(2**64), 2**64), st.nothing())


def optional(flag: str, text: st.SearchStrategy) -> st.SearchStrategy:
    """``[flag, value]`` or nothing."""
    return st.one_of(st.just([]), text.map(lambda value: [flag, value]))


def flags(*options: st.SearchStrategy) -> st.SearchStrategy:
    """The options drawn, in a drawn order."""
    return st.tuples(*options).flatmap(st.permutations).map(lambda parts: sum(parts, []))


DOCUMENT_OPTIONS = ["--model", "--scenario", "--weights"]


def unusable(files, inputs: list[str], outputs: list[str]) -> st.SearchStrategy:
    """Rarely, one of ``inputs`` naming a path with a NUL, or one of ``outputs`` (or ``--out-dir``) naming
    such a path or a symlink loop."""
    return often(st.just([]), st.one_of(
        st.tuples(st.sampled_from(inputs), st.just(files["nul"])),
        st.tuples(st.sampled_from([*outputs, "--out-dir"]), st.sampled_from([files["nul"], files["loop"]])),
    ).map(list))


def _below(parts: list[str]) -> str:
    """``parts`` joined, without each ``..`` that would climb above where the path starts."""
    depth, kept = 0, []
    for part in parts:
        if part != ".." or depth:
            depth += {"..": -1, ".": 0}.get(part, 1)
            kept.append(part)
    return os.path.join(".", *kept)


# a transcript that takes no byte
FULL = ["/dev/full"] if os.path.exists("/dev/full") else []


def in_folder(options: list[str], outputs: list[str]) -> st.SearchStrategy:
    """About half the time, some of ``options`` naming paths in the example's folder, from the names of the run's
    files, ``a``, ``b`` and the regular file ``afile``, or now and then a ``--transcript`` of ``/dev/full``."""
    # ".." twice: a path that backs out of a name the run makes is where a directory lands in a file's place
    names = st.sampled_from(["a", "b", ".", "..", "..", "manifest.json", "afile", *outputs])
    paths = {option: st.lists(names, min_size=1, max_size=5).map(_below) for option in options}
    if FULL and "--transcript" in paths:
        paths["--transcript"] = often(paths["--transcript"], st.sampled_from(FULL))
    return st.one_of(st.just([]), flags(*(optional(option, text) for option, text in paths.items())))


def train_argv(files) -> st.SearchStrategy:
    schedule = often(st.sampled_from(["constant", "decay"]), st.just("linear"))
    return st.tuples(schedule, st.sampled_from(["constant", "decay"])).flatmap(lambda kinds: flags(
        st.just(["--epochs", "1", "--schedule", kinds[0]]),
        optional("--episodes", counts(1, 5)),
        optional("--snapshot-episode", counts(1, 6)),
        optional("--snapshot-rollouts", counts(0, 2)),
        optional("--final-window", counts(0, 8)),
        # the options of a drawn schedule, mostly the one that runs
        *(optional(flag, probabilities) for flag in {"constant": ["--epsilon"],
                                                     "decay": ["--eps-min", "--eps-max"]}[kinds[1]]),
        optional("--decay-rate", numbers(st.floats(1e-9, 1.0), st.floats())) if kinds[1] == "decay" else st.just([]),
        optional("--alpha", probabilities),
        optional("--gamma", probabilities),
        optional("--perception-noise", probabilities),
        optional("--seed", seeds),
        unusable(files, DOCUMENT_OPTIONS, []),
        in_folder(["--out-dir"], ["qtable.csv", "policy.csv", "training_log.csv", "learning_curve.csv"]),
    )).map(lambda argv: ["train", *argv])


def evaluate_argv(files) -> st.SearchStrategy:
    policy = often(st.just(files["policy"]), st.just(files["missing"]))
    log = often(st.just(files["log"]), st.just(files["policy"]))
    one_mode = st.one_of(policy.map(lambda path: ["--policy", path]), st.just(["--baseline", "random"]),
                         log.map(lambda path: ["--select-final", "--log", path]))
    every_combination = flags(optional("--policy", policy), optional("--baseline", st.just("random")),
                              st.sampled_from([[], ["--select-final"]]), optional("--log", log))
    return flags(
        often(one_mode, every_combination),
        counts(1, 2).map(lambda n: ["--rollouts", n]),
        optional("--seed", seeds),
        unusable(files, [*DOCUMENT_OPTIONS, "--policy", "--log"], []),
        in_folder(["--out-dir"], ["evaluation_report.json", "final_policy.csv"]),
    ).map(lambda argv: ["evaluate", *argv])


# HTTP options under flags that reject them before a connection: the template backend, an http
# backend without a base URL or a model, or a base URL that no request goes to
HTTP_OPTIONS = flags(
    optional("--base-url", st.sampled_from(["http://127.0.0.1:9/v1", "ftp://x/v1", "http://u:p@127.0.0.1:9"])),
    optional("--llm-model", st.sampled_from(["m", ""])),
    optional("--temperature", numbers(st.floats(0.0, 2.0), st.floats())),
    optional("--timeout-ms", counts(1, 10**6)),
    optional("--max-retries", counts(0, 3)),
)


def _rejected_on_the_http_backend(options: list[str]) -> bool:
    given = dict(zip(options[::2], options[1::2]))
    return given.get("--base-url", "").startswith(("ftp:", "http://u:")) or not given.get("--llm-model")


def simulate_argv(files) -> st.SearchStrategy:
    http = st.one_of(
        HTTP_OPTIONS.filter(bool),  # on the template backend
        HTTP_OPTIONS.filter(_rejected_on_the_http_backend).map(lambda options: ["--backend", "http", *options]),
    )
    return flags(
        st.just(["--policy", files["policy"]]),
        optional("--noise", probabilities),
        st.sampled_from([[], ["--use-perceived"]]),
        optional("--guidance", often(st.sampled_from(["brief", "detailed"]), st.just("verbose"))),
        st.sampled_from([[], ["--include-state"]]),
        optional("--seed", seeds),
        often(st.just([]), http),
        unusable(files, [*DOCUMENT_OPTIONS, "--policy"], ["--transcript"]),
        in_folder(["--out-dir", "--transcript"], ["transcript.txt"]),
    ).map(lambda argv: ["simulate", *argv])


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, str]:
    folder = tmp_path_factory.mktemp("inputs")
    assert main(["train", "--epochs", "1", "--episodes", "3", "--snapshot-episode", "1", "--snapshot-rollouts", "1",
                 "--out-dir", str(folder)]) == 0
    (folder / "loop").symlink_to("loop")
    return {"policy": str(folder / "policy.csv"), "log": str(folder / "training_log.csv"),
            "missing": str(folder / "missing.csv"), "nul": str(folder / "a\x00b.csv"), "loop": str(folder / "loop")}


_runs = itertools.count()

# runs that once exited 1 after making a directory or writing their manifest
PINNED = {
    "train": [["train", "--epochs", "1", "--episodes", "10", "--out-dir", "o/qtable.csv/.."]],
    "evaluate": [["evaluate", "--baseline", "random", "--rollouts", "1", "--out-dir", "o/evaluation_report.json/.."]],
    "simulate": [["simulate", "--policy", "{policy}", *paths] for paths in [
        ["--out-dir", "k/../k2", "--transcript", "k"], ["--out-dir", "a/b/../c", "--transcript", "a/b"],
        ["--out-dir", "a/t.txt/../o", "--transcript", "a/t.txt"], ["--transcript", "t.txt/x/../../t.txt"],
        ["--out-dir", "o/new", "--transcript", "afile/t.txt"], ["--transcript", "a/a/.."],
        ["--out-dir", "a/../afile"], ["--transcript", "afile/../a"],
        *(["--out-dir", "o/new", "--transcript", full] for full in FULL)]],
}


@pytest.mark.parametrize("command", [train_argv, evaluate_argv, simulate_argv], ids=["train", "evaluate", "simulate"])
def test_every_run_exits_0_or_exits_1_with_one_error_line_and_no_manifest(files, tmp_path_factory, command,
                                                                          monkeypatch):
    monkeypatch.setenv("CARESIM_API_KEY", "test-key")
    base = tmp_path_factory.mktemp(command.__name__)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(command(files))
    def run(argv):
        folder = base / str(next(_runs))
        folder.mkdir()
        (folder / "afile").write_bytes(b"")
        monkeypatch.chdir(folder)
        # a drawn --out-dir comes later and wins
        argv = [argv[0], "--out-dir", "out", *argv[1:]]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        if code == 0:
            assert os.path.isfile(os.path.join(build_parser().parse_args(argv).out_dir, "manifest.json"))
        else:
            assert code == 1
            assert stderr.getvalue().startswith("error: ") and stderr.getvalue().count("\n") == 1, stderr.getvalue()
            assert [path.name for path in folder.iterdir()] == ["afile"]

    for argv in PINNED[command.__name__.removesuffix("_argv")]:
        run = example([arg.format(**files) for arg in argv])(run)
    run()
