"""The ``repro-hhh serve`` subcommand: multi-tenant emissions, per-tenant
checkpoint directories, resume with fast-forward, and the JSON artifact."""

import json
import pickle

import pytest

from repro.cli import main
from repro.experiments import validate_result_dict

SPEC_A = "drift:duration=8,seed=1"
SPEC_B = "zipf:duration=8,seed=5"


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestServeCommand:
    def test_multi_tenant_emissions_print(self, capsys):
        code, out = _run(
            capsys, "serve",
            "--tenant", f"a={SPEC_A}", "--tenant", f"b={SPEC_B}",
            "--workers", "2", "--shards", "2", "--chunk", "2048",
            "--emit-every", "2s", "--max-packets", "6000",
        )
        assert code == 0
        assert "a " in out and "b " in out
        assert "emit" in out
        assert "a: 6000 packets" in out
        assert "b: 6000 packets" in out

    def test_json_artifact_validates(self, capsys, tmp_path):
        out_path = tmp_path / "serve.json"
        code, _ = _run(
            capsys, "serve", "--tenant", f"a={SPEC_A}",
            "--chunk", "2048", "--max-packets", "4000",
            "--json", str(out_path),
        )
        assert code == 0
        document = json.loads(out_path.read_text())
        validate_result_dict(document)
        assert document["experiment"] == "serve"
        assert document["headline"]["tenants"] == 1
        assert document["headline"]["failed"] == 0
        assert all(row["tenant"] == "a" for row in document["rows"])

    def test_checkpoint_then_resume_continues(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpts"
        code, out = _run(
            capsys, "serve",
            "--tenant", f"a={SPEC_A}", "--tenant", f"b={SPEC_B}",
            "--chunk", "2048", "--max-packets", "4000",
            "--checkpoint-dir", str(ckpt),
        )
        assert code == 0
        assert (ckpt / "a.ckpt").exists() and (ckpt / "b.ckpt").exists()
        # A checkpointed run holds the open interval: no partial reports.
        assert "partial" not in out

        code, out = _run(
            capsys, "serve",
            "--tenant", f"a={SPEC_A}", "--tenant", f"b={SPEC_B}",
            "--chunk", "2048", "--max-packets", "8000",
            "--resume-dir", str(ckpt), "--fast-forward",
        )
        assert code == 0
        assert "a: resumed at packet 4000" in out
        assert "b: resumed at packet 4000" in out

    def test_rejects_malformed_tenants(self, capsys):
        code, _ = _run(capsys, "serve", "--tenant", "nospec")
        assert code == 2
        code, _ = _run(
            capsys, "serve",
            "--tenant", f"a={SPEC_A}", "--tenant", f"a={SPEC_B}",
        )
        assert code == 2

    def test_wrong_schema_resume_names_tenant_and_file(self, capsys, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(pickle.dumps([1, 2, 3]))
        code = main(["serve", "--tenant", f"a={SPEC_A}",
                     "--resume-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "'a'" in err
        assert str(path) in err
        assert "repro-hhh/stream-checkpoint/v2" in err

    def test_rejects_unknown_detector(self, capsys):
        code, _ = _run(
            capsys, "serve", "--tenant", f"a={SPEC_A}",
            "--detector", "countmin",
        )
        assert code == 2

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--tenant", "a=drift:duration=4"]
        )
        assert args.workers == 1
        assert args.shards is None
        assert args.chunk == 8192
        assert args.emit_every == "2s"
        assert args.detector == "countmin-hh"
        assert args.checkpoint_every is None
        assert args.recover is True


class TestCrashSupervision:
    def test_checkpoint_every_run_reports_zero_recoveries(
        self, capsys, tmp_path
    ):
        """A supervised run with auto-checkpoints on and no crash: clean
        exit, ``recoveries: 0`` in the artifact headline."""
        out_path = tmp_path / "serve.json"
        code, out = _run(
            capsys, "serve", "--tenant", f"a={SPEC_A}",
            "--workers", "2", "--shards", "2",
            "--chunk", "2048", "--max-packets", "6000",
            "--checkpoint-every", "1", "--json", str(out_path),
        )
        assert code == 0
        assert "recovered" not in out   # only printed after actual crashes
        document = json.loads(out_path.read_text())
        assert document["headline"]["recoveries"] == 0
        assert document["headline"]["failed"] == 0

    def test_no_recover_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--tenant", "a=drift:duration=4", "--no-recover",
             "--checkpoint-every", "3"]
        )
        assert args.recover is False
        assert args.checkpoint_every == 3

    def test_checkpoint_every_must_be_positive(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--tenant", "a=drift:duration=4",
                 "--checkpoint-every", "0"]
            )
        capsys.readouterr()
