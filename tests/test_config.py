"""The ``Document`` contract, checked once for each of the three config classes,
and the one writer that every artifact goes through."""

from __future__ import annotations

import errno
import json
import os
import stat
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caresim import ConfigError, Policy, RewardWeights, ScenarioSpec, TransitionModel
from caresim.cli import main
from caresim.config import JsonText, read_float, read_name, render_json, write_csv, write_json, write_text
from caresim.llm import _one_line

DOCUMENTS = [TransitionModel, ScenarioSpec, RewardWeights]


@pytest.mark.parametrize("cls", DOCUMENTS)
def test_default_is_one_shared_instance_of_its_own_class(cls):
    assert cls.default() is cls.default()
    # the cache is keyed by class, so no class gets another's default
    assert type(cls.default()) is cls


@pytest.mark.parametrize("cls", DOCUMENTS)
def test_equal_documents_make_equal_and_equally_hashed_values(cls):
    rebuilt = cls.from_dict(cls.default().to_dict())
    assert rebuilt is not cls.default()
    assert rebuilt == cls.default() and hash(rebuilt) == hash(cls.default())
    assert len({rebuilt, cls.default()}) == 1
    # a value computed once and kept on the object is not part of its identity
    cls.default().indented_json
    assert "indented_json" in vars(cls.default()) and "indented_json" not in vars(rebuilt)
    assert rebuilt == cls.default() and hash(rebuilt) == hash(cls.default())


# names that load: one line with no whitespace around it
_NAMES = st.text(min_size=1, max_size=5).map(_one_line)


@settings(max_examples=100)
@given(st.lists(st.lists(_NAMES, min_size=1, max_size=4), min_size=1, max_size=4), st.integers(1, 9))
def test_scenarios_with_equal_fields_stay_equal_once_the_step_count_is_stored(subtasks, max_trial):
    doc = {"name": "s", "max_trial": max_trial,
           "tasks": [{"name": f"t{i}", "subtasks": names} for i, names in enumerate(subtasks)]}
    first, second = ScenarioSpec.from_dict(doc), ScenarioSpec.from_dict(doc)
    assert first.max_episode_steps == max_trial * sum(map(len, subtasks))
    second.indented_json
    assert "max_episode_steps" in vars(first) and "indented_json" not in vars(first)
    assert first == second and hash(first) == hash(second)


# every boundary str.splitlines splits on, whitespace that str.strip removes, and any other character
_NAME_TEXT = st.text(st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\xa0\u3000ab") | st.characters())


@given(_NAME_TEXT)
@example("")
@example("a\tb")
@example("a\r\nb")
@example("a\u2028b")
@example(" a")
@example("a\xa0")
def test_read_name_accepts_a_text_if_and_only_if_it_is_its_own_one_line_form(text):
    try:
        accepted = read_name(text, "name") == text
    except ConfigError as exc:
        assert str(exc).startswith("name must be one line without leading or trailing whitespace")
        accepted = False
    assert accepted == (_one_line(text) == text)


@pytest.mark.parametrize("cls", DOCUMENTS)
def test_indented_json_is_the_document_as_json_dumps_renders_it(cls):
    value = cls.default()
    assert value.indented_json == json.dumps(value.to_dict(), indent=2)
    assert value.indented_json is value.indented_json


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_JSON_VALUES = st.recursive(
    _JSON_SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12)


@st.composite
def _with_json_text(draw, value):
    """``value`` with some dict values, at any depth, replaced by their rendered ``JsonText``."""
    if isinstance(value, dict):
        return {key: JsonText(json.dumps(item, indent=2)) if draw(st.booleans()) else draw(_with_json_text(item))
                for key, item in value.items()}
    return value


@settings(max_examples=300)
@given(st.data(), _JSON_VALUES)
def test_render_json_is_json_dumps_with_json_text_spliced_in(data, value):
    expected = json.dumps(value, indent=2)
    assert render_json(data.draw(_with_json_text(value))) == expected
    assert render_json(JsonText(expected)) == expected


@pytest.mark.parametrize("cls", DOCUMENTS)
@pytest.mark.parametrize(
    "content, message",
    [(None, "cannot read config file"), (b'{"name": "\xff"}', "cannot read config file"), (b"{", "invalid JSON in")],
    ids=["missing", "non-utf8", "invalid-json"],
)
def test_from_file_maps_read_and_parse_failures_onto_config_error(tmp_path, cls, content, message):
    path = tmp_path / "doc.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigError, match=message) as caught:
        cls.from_file(path)
    assert str(path) in str(caught.value)


def _simulate(tmp_path, *extra) -> int:
    """``caresim simulate`` of a fixed policy into ``tmp_path/s``."""
    policy = tmp_path / "policy.csv"
    if not policy.exists():
        Policy.from_id("0123012301230123").to_file(policy)
    return main(["simulate", "--policy", str(policy), "--seed", "3", "--out-dir", str(tmp_path / "s"), *extra])


def test_a_shorter_artifact_over_a_longer_one_leaves_exactly_the_new_bytes(tmp_path):
    csv_path, json_path = tmp_path / "a.csv", tmp_path / "a.json"
    for path in (csv_path, json_path):
        path.write_bytes(b"x" * 100_000)
    write_csv(csv_path, [["a", 1.5], [None, "é"]], "\r\n")
    write_json(json_path, {"a": [1]})
    assert csv_path.read_bytes() == "a,1.5\r\n,é\r\n".encode("utf-8")
    assert json_path.read_bytes() == b'{\n  "a": [\n    1\n  ]\n}\n'

    assert _simulate(tmp_path) == 0
    transcript = tmp_path / "s" / "transcript.txt"
    expected = transcript.read_bytes()
    transcript.write_bytes(b"x" * (2 * len(expected)))
    assert _simulate(tmp_path) == 0
    assert transcript.read_bytes() == expected


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_simulate_writes_its_transcript_to_dev_null(tmp_path):
    assert _simulate(tmp_path, "--transcript", "/dev/null") == 0


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_a_fifo_target_is_written_and_not_cut(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_text(fifo, "over a pipe\n")
    reader.join(timeout=10)
    assert received == [b"over a pipe\n"]


def test_a_new_artifact_gets_the_mode_open_gives_and_an_old_one_keeps_its_mode(tmp_path):
    umask = os.umask(0o027)
    try:
        write_text(tmp_path / "new", "x")
        with open(tmp_path / "opened", "w", encoding="utf-8"):
            pass
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == stat.S_IMODE((tmp_path / "opened").stat().st_mode)
    (tmp_path / "new").chmod(0o600)
    write_text(tmp_path / "new", "y")
    assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == 0o600


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
def test_a_write_that_fails_partway_leaves_the_bytes_written_and_no_open_descriptor(tmp_path, monkeypatch,
                                                                                    capsys):
    assert _simulate(tmp_path) == 0
    transcript = tmp_path / "s" / "transcript.txt"
    expected = transcript.read_bytes()
    transcript.write_bytes(b"x" * (2 * len(expected)))
    target = transcript.stat()  # overwritten in place, so the inode stays the same
    real_write, partial = os.write, []

    def write(fd, data):
        """Write 100 bytes of the transcript, then fail; other files are written as usual."""
        if not os.path.samestat(os.fstat(fd), target):
            return real_write(fd, data)
        if partial:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        partial.append(fd)
        return real_write(fd, data[:100])

    descriptors = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "write", write)
    code = _simulate(tmp_path)
    monkeypatch.undo()
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: [Errno {errno.ENOSPC}]")
    assert transcript.read_bytes() == expected[:100]
    assert len(os.listdir("/proc/self/fd")) == descriptors


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_read_float_reads_back_every_finite_float_as_repr_writes_it(value):
    assert repr(read_float(repr(value), "cell")) == repr(value)
