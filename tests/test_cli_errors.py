"""CLI hardening: unusable input exits 2 with one structured line."""

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.util.io import write_pgm


@pytest.fixture
def src(tmp_path, rng):
    path = tmp_path / "in.pgm"
    write_pgm(path, np.rint(rng.uniform(0, 255, (64, 64))))
    return path


def run(capsys, argv):
    rc = cli_main(argv)
    captured = capsys.readouterr()
    return rc, captured.err


class TestExitTwo:
    def test_missing_input_file(self, tmp_path, capsys):
        rc, err = run(capsys, ["sharpen", str(tmp_path / "nope.pgm"),
                               str(tmp_path / "out.pgm")])
        assert rc == 2
        assert err.count("\n") == 1          # exactly one line
        assert err.startswith("error: exit=2 kind=")
        assert "Traceback" not in err

    def test_corrupt_image(self, tmp_path, capsys):
        bad = tmp_path / "corrupt.pgm"
        bad.write_bytes(b"P5\n64 64\n255\n\x00\x01")  # truncated raster
        rc, err = run(capsys, ["sharpen", str(bad),
                               str(tmp_path / "out.pgm")])
        assert rc == 2
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_sample_above_maxval(self, tmp_path, capsys):
        bad = tmp_path / "over.pgm"
        bad.write_bytes(b"P2\n4 4\n255\n" + b"0 " * 15 + b"300\n")
        rc, err = run(capsys, ["sharpen", str(bad),
                               str(tmp_path / "out.pgm")])
        assert rc == 2
        assert err.count("\n") == 1
        assert "exceeds maxval" in err
        assert "Traceback" not in err

    def test_ppm_sample_above_maxval(self, tmp_path, capsys):
        bad = tmp_path / "over.ppm"
        raster = bytearray(16 * 16 * 3)
        raster[37] = 200
        bad.write_bytes(b"P6\n16 16\n15\n" + bytes(raster))
        rc, err = run(capsys, ["sharpen", str(bad),
                               str(tmp_path / "out.ppm")])
        assert rc == 2
        assert err.count("\n") == 1
        assert "exceeds maxval" in err
        assert "Traceback" not in err

    def test_directory_as_input(self, tmp_path, capsys):
        trap = tmp_path / "dir.pgm"
        trap.mkdir()
        rc, err = run(capsys, ["sharpen", str(trap),
                               str(tmp_path / "out.pgm")])
        assert rc == 2
        assert err.startswith("error: exit=2")

    def test_unsupported_format_keeps_exit_one(self, tmp_path, capsys):
        # pinned behavior: a *valid path* in a format we don't speak is a
        # normal error (1), not unusable input (2)
        weird = tmp_path / "in.bmp"
        weird.write_bytes(b"BM")
        rc, err = run(capsys, ["sharpen", str(weird),
                               str(tmp_path / "out.pgm")])
        assert rc == 1

    @pytest.mark.parametrize("spec", [
        "nosuchsite:rate=0.5",
        "transfer:rate=2.0",
        "transfer:rate=0.5;seed=x",
        "transfer",
    ])
    def test_bad_fault_spec(self, src, tmp_path, capsys, spec):
        rc, err = run(capsys, ["sharpen", str(src),
                               str(tmp_path / "out.pgm"),
                               "--inject-faults", spec])
        assert rc == 2
        assert err.count("\n") == 1
        assert "kind=FaultSpecError" in err
        assert "Traceback" not in err

    def test_batch_with_unreadable_frame(self, src, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "f0.pgm").write_bytes(src.read_bytes())
        (frames / "f1.pgm").write_bytes(b"garbage, not a pgm")
        out = tmp_path / "out"
        rc, err = run(capsys, ["sharpen", str(frames), str(out), "--batch",
                               "--workers", "1"])
        assert rc == 2
        assert "error: exit=2" in err


class TestDurableJobExitCodes:
    """The exit-code contract (docs/lifecycle.md): 0 ok, 1 runtime,
    2 usage, 3 drained-incomplete, 4 aborted.  Codes 3 and 4 need real
    signals and live in test_lifecycle_kill_resume.py."""

    @pytest.fixture
    def frames(self, tmp_path, rng):
        src = tmp_path / "frames"
        src.mkdir()
        for i in range(3):
            write_pgm(src / f"f{i}.pgm",
                      np.rint(rng.uniform(0, 255, (32, 32))))
        return src

    def test_resume_missing_dir_exits_2(self, tmp_path, capsys):
        rc, err = run(capsys, ["sharpen", "--resume",
                               str(tmp_path / "nowhere")])
        assert rc == 2
        assert "not a job directory" in err

    def test_resume_with_positionals_exits_2(self, tmp_path, frames,
                                             capsys):
        rc, err = run(capsys, ["sharpen", str(frames / "*.pgm"),
                               str(tmp_path / "out"),
                               "--resume", str(tmp_path / "job")])
        assert rc == 2

    def test_job_dir_without_inputs_exits_2(self, tmp_path, capsys):
        rc, err = run(capsys, ["sharpen", "--job-dir",
                               str(tmp_path / "job")])
        assert rc == 2

    def test_missing_positionals_exit_2(self, capsys):
        rc, err = run(capsys, ["sharpen"])
        assert rc == 2
        assert "required" in err

    def test_reusing_job_dir_without_resume_exits_2(self, tmp_path,
                                                    frames, capsys):
        argv = ["sharpen", str(frames / "*.pgm"), str(tmp_path / "out"),
                "--batch", "--job-dir", str(tmp_path / "job"),
                "--workers", "1"]
        rc, _ = run(capsys, argv)
        assert rc == 0
        rc, err = run(capsys, argv)
        assert rc == 2
        assert "already holds a journal" in err

    def test_dead_letters_exit_1_then_replay_exits_0(self, tmp_path,
                                                     frames, capsys):
        rc, err = run(capsys, [
            "sharpen", str(frames / "*.pgm"), str(tmp_path / "out"),
            "--batch", "--job-dir", str(tmp_path / "job"), "--workers",
            "1", "--inject-faults",
            "worker:rate=1.0,max=1,kind=permanent;seed=3",
        ])
        assert rc == 1
        assert "failed frame" in err
        rc, err = run(capsys, ["sharpen", "--replay-failures",
                               str(tmp_path / "job")])
        assert rc == 0
        assert len(list((tmp_path / "out").glob("*.pgm"))) == 3

    def test_durable_success_exits_0_and_writes_health(self, tmp_path,
                                                       frames, capsys):
        health = tmp_path / "health.json"
        rc, err = run(capsys, [
            "sharpen", str(frames / "*.pgm"), str(tmp_path / "out"),
            "--batch", "--job-dir", str(tmp_path / "job"), "--workers",
            "1", "--health-out", str(health), "--hang-timeout", "60",
        ])
        assert rc == 0
        import json
        snap = json.loads(health.read_text())
        assert snap["state"] == "completed"
        assert snap["completed"] == 3


class TestStillWorks:
    def test_resilient_sharpen_with_faults_succeeds(self, src, tmp_path,
                                                    capsys):
        out = tmp_path / "out.pgm"
        rc = cli_main([
            "sharpen", str(src), str(out), "--resilient",
            "--inject-faults", "transfer:rate=0.05,kind=transient;seed=3",
            "--log-level", "error",
        ])
        assert rc == 0
        assert out.exists()

    def test_plain_sharpen_unaffected(self, src, tmp_path, capsys):
        out = tmp_path / "out.pgm"
        assert cli_main(["sharpen", str(src), str(out)]) == 0
        assert out.exists()
