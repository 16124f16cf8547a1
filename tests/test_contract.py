"""One contract over the command line: whatever the flags, ``main`` exits 0, or exits 1 with one error line.

Hypothesis draws argv for each command, with numeric text as the flag tests
draw it: numbers as ``repr`` writes them, other scripts' digits, digit group
separators, whitespace and words. Now and then an input or an output option
names a path that no run can use: one holding a NUL, or, for an output, a
symlink loop. The runs are kept small (``train`` at one epoch, ``evaluate``
at most 2 rollouts, ``simulate`` on the template backend), and the HTTP flags
come only in combinations that are rejected before any connection is made.
"""

from __future__ import annotations

import contextlib
import io
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_config import _FOREIGN_NUMBERS

from caresim.cli import main

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


@pytest.mark.parametrize("command", [train_argv, evaluate_argv, simulate_argv], ids=["train", "evaluate", "simulate"])
def test_every_run_exits_0_or_exits_1_with_one_error_line_and_no_manifest(files, tmp_path_factory, command,
                                                                          monkeypatch):
    monkeypatch.setenv("CARESIM_API_KEY", "test-key")
    base = tmp_path_factory.mktemp(command.__name__)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(command(files))
    def run(argv):
        out = base / str(next(_runs))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            # a drawn --out-dir comes later and wins
            code = main([argv[0], "--out-dir", str(out), *argv[1:]])
        if code == 0:
            assert (out / "manifest.json").is_file()
        else:
            assert code == 1
            assert stderr.getvalue().startswith("error: ") and stderr.getvalue().count("\n") == 1, stderr.getvalue()
            assert not (out / "manifest.json").exists()

    run()
