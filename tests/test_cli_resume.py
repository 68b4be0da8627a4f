"""Resuming from a damaged checkpoint file exits 2 with a clean error.

A crash right after the CLI opens a checkpoint file for writing leaves it
empty; a crash mid-write leaves it truncated.  Both ``stream --resume`` and
``serve --resume-dir`` must refuse such a file rather than raise.
"""

import pytest

from repro.cli import main

SOURCE = "drift:duration=8,seed=1"
RUN = ["--chunk", "2048", "--max-packets", "4096"]

#: command -> (argv writing a checkpoint into DIR, the file it writes,
#: argv resuming from DIR)
COMMANDS = {
    "stream": (
        lambda d: ["stream", "countmin-hh", "--source", SOURCE, *RUN,
                   "--checkpoint", str(d / "pipe.ckpt")],
        "pipe.ckpt",
        lambda d: ["stream", "countmin-hh", "--source", SOURCE, *RUN,
                   "--resume", str(d / "pipe.ckpt")],
    ),
    "serve": (
        lambda d: ["serve", "--tenant", f"a={SOURCE}", *RUN,
                   "--checkpoint-dir", str(d)],
        "a.ckpt",
        lambda d: ["serve", "--tenant", f"a={SOURCE}", *RUN,
                   "--resume-dir", str(d)],
    ),
}

#: truncation -> bytes of the intact file it keeps
CUTS = {
    "empty": lambda size: 0,
    "10-bytes": lambda size: 10,
    "half": lambda size: size // 2,
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


@pytest.mark.parametrize("cut", sorted(CUTS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_damaged_checkpoint_exits_2(command, cut, checkpoints, tmp_path,
                                    capsys):
    _, filename, resume = COMMANDS[command]
    data = checkpoints[command]
    (tmp_path / filename).write_bytes(data[:CUTS[cut](len(data))])
    assert main(resume(tmp_path)) == 2
    assert "cannot resume" in capsys.readouterr().err
