"""Resuming from a damaged or foreign checkpoint file exits 2 cleanly.

A crash right after the CLI opens a checkpoint file for writing leaves it
empty; a crash mid-write leaves it truncated; a bad disk flips a byte; an
older release wrote pickled v1 files.  Both ``stream --resume`` and
``serve --resume-dir`` must refuse such a file rather than raise or
silently restore it.  ``--fast-forward`` without a resume is a flag
conflict and exits 2 as well.
"""

import pickle

import pytest

from repro.cli import main
from repro.core.checkpoint import encode

SOURCE = "drift:duration=8,seed=1"
RUN = ["--chunk", "2048"]
# The resume asks for more packets than the writer took, so an intact
# checkpoint would resume and stream on (serve refuses a tenant already
# at its cap for a reason of its own).
WRITE, RESUME = ["--max-packets", "4096"], ["--max-packets", "8192"]

#: command -> (argv writing a checkpoint into DIR, the file it writes,
#: argv resuming from DIR)
COMMANDS = {
    "stream": (
        lambda d: ["stream", "countmin-hh", "--source", SOURCE, *RUN, *WRITE,
                   "--checkpoint", str(d / "pipe.ckpt")],
        "pipe.ckpt",
        lambda d: ["stream", "countmin-hh", "--source", SOURCE, *RUN,
                   *RESUME, "--resume", str(d / "pipe.ckpt")],
    ),
    "serve": (
        lambda d: ["serve", "--tenant", f"a={SOURCE}", *RUN, *WRITE,
                   "--checkpoint-dir", str(d)],
        "a.ckpt",
        lambda d: ["serve", "--tenant", f"a={SOURCE}", *RUN, *RESUME,
                   "--resume-dir", str(d)],
    ),
}


def _flip_middle(data: bytes) -> bytes:
    at = len(data) // 2
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]


#: damage -> the damaged file's bytes, from the intact file's bytes
CUTS = {
    "empty": lambda data: b"",
    "10-bytes": lambda data: data[:10],
    "half": lambda data: data[:len(data) // 2],
    "bit-flip": _flip_middle,
    "v1-pickle": lambda data: pickle.dumps(
        {"schema": "repro-hhh/stream-checkpoint/v1"}
    ),
    "wrong-schema": lambda data: encode({"schema": "bogus/v9"}),
}


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """The bytes of one intact checkpoint file per command."""
    intact = {}
    for command, (write, filename, _) in COMMANDS.items():
        directory = tmp_path_factory.mktemp(command)
        assert main(write(directory)) == 0
        intact[command] = (directory / filename).read_bytes()
    return intact


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_intact_checkpoint_resumes(command, checkpoints, tmp_path, capsys):
    _, filename, resume = COMMANDS[command]
    (tmp_path / filename).write_bytes(checkpoints[command])
    assert main(resume(tmp_path)) == 0
    assert "resumed at packet 4096" in capsys.readouterr().out


@pytest.mark.parametrize("cut", sorted(CUTS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_damaged_checkpoint_exits_2(command, cut, checkpoints, tmp_path,
                                    capsys):
    _, filename, resume = COMMANDS[command]
    (tmp_path / filename).write_bytes(CUTS[cut](checkpoints[command]))
    assert main(resume(tmp_path)) == 2
    assert "cannot resume" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["stream", "countmin-hh", "--source", SOURCE, "--fast-forward"],
    ["serve", "--tenant", f"a={SOURCE}", "--fast-forward"],
], ids=["stream", "serve"])
def test_fast_forward_without_resume_exits_2(argv, capsys):
    assert main(argv) == 2
    assert "--fast-forward needs" in capsys.readouterr().err
