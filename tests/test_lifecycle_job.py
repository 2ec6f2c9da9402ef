"""Durable-job lifecycle: drain/abort, resume bit-identity, watchdog,
health — all in-process (the subprocess SIGKILL story lives in
``test_lifecycle_kill_resume.py``)."""

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import OPTIMIZED, GPUPipeline
from repro.errors import ConfigError, UsageError, ValidationError
from repro.lifecycle import (
    BatchJob,
    EXIT_ABORTED,
    EXIT_DRAINED,
    EXIT_OK,
    EXIT_RUNTIME,
    FrameWatch,
    HealthReporter,
    JobJournal,
    LifecycleConfig,
    Manifest,
    ShutdownCoordinator,
    Watchdog,
)
from repro.obs import RunContext
from repro.resilience import FaultPlan
from repro.util import images as synth
from repro.util.io import read_pgm, write_pgm

FAST = LifecycleConfig(fsync=False)  # tmpfs tests don't need real fsync


@pytest.fixture
def frames_dir(tmp_path):
    src = tmp_path / "frames"
    src.mkdir()
    for i in range(6):
        write_pgm(src / f"f{i:02d}.pgm", synth.text_like(32, 32, seed=i))
    return src


def make_job(tmp_path, frames_dir, *, name="job", out="out", obs=None,
             lifecycle=FAST, workers=2):
    return BatchJob(
        inputs=sorted(frames_dir.glob("*.pgm")),
        output_dir=tmp_path / out,
        job_dir=tmp_path / name,
        workers=workers,
        obs=obs or RunContext.disabled(),
        lifecycle=lifecycle,
    )


def read_outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.pgm"))}


class TestHappyPath:
    def test_run_completes_and_journals(self, tmp_path, frames_dir):
        job = make_job(tmp_path, frames_dir)
        outcome = job.run()
        assert outcome.state == "completed"
        assert outcome.exit_code == EXIT_OK
        assert outcome.executed == 6
        assert len(read_outputs(tmp_path / "out")) == 6
        state = JobJournal.replay(tmp_path / "job")
        assert set(state.completed) == {f"f{i:02d}.pgm" for i in range(6)}
        assert Manifest.load(tmp_path / "job").state == "completed"

    def test_frame_ids_are_input_names(self, tmp_path, frames_dir):
        job = make_job(tmp_path, frames_dir)
        assert job.frame_ids == [f"f{i:02d}.pgm" for i in range(6)]
        job.run()
        for fid, record in JobJournal.replay(job.job_dir).completed.items():
            assert record["output"] == fid
            assert record["backend"] == "gpu"

    def test_duplicate_input_names_rejected(self, tmp_path, frames_dir):
        other = tmp_path / "other"
        other.mkdir()
        write_pgm(other / "f00.pgm", synth.text_like(32, 32, seed=9))
        with pytest.raises(ValidationError, match="unique"):
            BatchJob(inputs=[frames_dir / "f00.pgm", other / "f00.pgm"],
                     output_dir=tmp_path / "out", job_dir=tmp_path / "job")

    def test_resume_of_finished_job_is_noop(self, tmp_path, frames_dir):
        make_job(tmp_path, frames_dir).run()
        before = read_outputs(tmp_path / "out")
        outcome = BatchJob.resume(tmp_path / "job", lifecycle=FAST).run()
        assert outcome.executed == 0
        assert outcome.exit_code == EXIT_OK
        assert read_outputs(tmp_path / "out") == before

    def test_fresh_job_refuses_used_dir(self, tmp_path, frames_dir):
        make_job(tmp_path, frames_dir).run()
        with pytest.raises(UsageError, match="already holds a journal"):
            make_job(tmp_path, frames_dir).run()

    def test_deleted_output_demotes_frame_to_pending(self, tmp_path,
                                                     frames_dir):
        make_job(tmp_path, frames_dir).run()
        (tmp_path / "out" / "f03.pgm").unlink()
        outcome = BatchJob.resume(tmp_path / "job", lifecycle=FAST).run()
        assert outcome.executed == 1
        assert (tmp_path / "out" / "f03.pgm").exists()

    def test_health_snapshot_written(self, tmp_path, frames_dir):
        job = make_job(tmp_path, frames_dir)
        job.run()
        health = json.loads((tmp_path / "job" / "health.json").read_text())
        assert health["state"] == "completed"
        assert health["completed"] == 6
        assert health["pending"] == 0
        assert health["inflight"] == 0
        assert health["ready"] is False  # finished jobs admit nothing
        assert health["live"] is True



class TestFileInputBitIdentity:
    """8-bit PGM files reach the engine as ``uint8``; the same pixels as
    float64 give byte-identical outputs and identical journal records."""

    def run_job(self, tmp_path, inputs, name, loader):
        job = BatchJob(inputs=inputs, output_dir=tmp_path / f"{name}_out",
                       job_dir=tmp_path / name, workers=2,
                       obs=RunContext.disabled(), lifecycle=FAST,
                       loader=loader)
        assert job.run().exit_code == EXIT_OK
        records = JobJournal.replay(job.job_dir).completed
        return (read_outputs(tmp_path / f"{name}_out"),
                {fid: r["edge_mean"] for fid, r in records.items()})

    def test_uint8_files_match_float64_loader(self, tmp_path):
        src = tmp_path / "frames"
        src.mkdir()
        for i, (h, w) in enumerate([(32, 48), (64, 64)] * 3):
            write_pgm(src / f"f{i:02d}-{h}x{w}.pgm",
                      synth.natural_like(h, w, seed=i))
        inputs = sorted(src.glob("*.pgm"))
        seen = []

        def u8_loader(path):
            plane = read_pgm(path)
            assert plane.dtype == np.uint8
            seen.append(path.name)
            return plane

        u8_out, u8_means = self.run_job(tmp_path, inputs, "u8", u8_loader)
        f64_out, f64_means = self.run_job(
            tmp_path, inputs, "f64",
            lambda p: read_pgm(p).astype(np.float64))
        assert sorted(seen) == [p.name for p in inputs]
        assert len(u8_out) == len(inputs)
        assert u8_out == f64_out
        assert u8_means == f64_means

    def test_u8_sink_writes_the_bytes_of_the_float64_final(self, tmp_path):
        # The job's writer gets uint8 planes that pass 2 rounded; a fresh
        # and a resumed job must write the bytes write_pgm makes of the
        # float64 final of the same frame.
        src = tmp_path / "frames"
        src.mkdir()
        for i, (h, w) in enumerate([(32, 48), (64, 64), (48, 96)] * 2):
            write_pgm(src / f"f{i:02d}-{h}x{w}.pgm",
                      synth.natural_like(h, w, seed=i))
        inputs = sorted(src.glob("*.pgm"))
        expected = {}
        for path in inputs:
            final = GPUPipeline(OPTIMIZED).run(read_pgm(path)).final
            assert final.dtype == np.float64
            write_pgm(tmp_path / "ref.pgm", final)
            expected[path.name] = (tmp_path / "ref.pgm").read_bytes()
        planes = []

        def writer(path, plane):
            planes.append(plane.dtype)
            write_pgm(path, plane)

        def job(**kw):
            return BatchJob(inputs=inputs, output_dir=tmp_path / "out",
                            job_dir=tmp_path / "job", workers=2,
                            obs=RunContext.disabled(), lifecycle=FAST,
                            writer=writer, **kw)

        assert job().run().exit_code == EXIT_OK
        assert read_outputs(tmp_path / "out") == expected
        assert planes == [np.uint8] * len(inputs)
        for name in list(expected)[::2]:
            (tmp_path / "out" / name).unlink()
        resumed = BatchJob.resume(tmp_path / "job", lifecycle=FAST,
                                  writer=writer)
        outcome = resumed.run()
        assert outcome.exit_code == EXIT_OK
        assert outcome.executed == 3
        assert read_outputs(tmp_path / "out") == expected
        assert planes == [np.uint8] * (len(inputs) + 3)


def slow_obs(spec="hang:rate=1.0,seconds=0.15;seed=1"):
    """An obs context whose fault plan stalls every frame (cancellable),
    slowing the batch enough to interrupt it deterministically."""
    return RunContext.create(log_level="error",
                             faults=FaultPlan.parse(spec))


def drain_when(job, ready, reason="test"):
    """Background thread: request drain once ``ready(job)`` turns true."""
    def watch():
        for _ in range(2000):
            if job.shutdown is not None and ready(job):
                job.shutdown.request_drain(reason)
                return
            time.sleep(0.005)
    thread = threading.Thread(target=watch, daemon=True)
    thread.start()
    return thread


class TestDrainResume:
    def test_drain_leaves_resumable_checkpoint(self, tmp_path, frames_dir):
        # Reference: an uninterrupted run in a separate directory.
        ref = make_job(tmp_path, frames_dir, name="ref-job", out="ref-out")
        ref.run()
        reference = read_outputs(tmp_path / "ref-out")

        job = make_job(tmp_path, frames_dir, obs=slow_obs(), workers=1)
        drain_when(job, lambda j: len(j._completed_ids) >= 2)
        outcome = job.run()
        assert outcome.state == "drained"
        assert outcome.exit_code == EXIT_DRAINED
        assert 0 < outcome.executed < 6
        assert outcome.pending
        assert Manifest.load(job.job_dir).state == "drained"
        run1 = outcome.executed

        resumed = BatchJob.resume(job.job_dir, lifecycle=FAST)
        outcome2 = resumed.run()
        assert outcome2.state == "completed"
        assert outcome2.exit_code == EXIT_OK
        # no frame ran twice...
        assert run1 + outcome2.executed == 6
        # ...and the stitched outputs are bit-identical to the clean run
        assert read_outputs(tmp_path / "out") == reference

    def test_abort_exits_4_with_valid_checkpoint(self, tmp_path,
                                                 frames_dir):
        job = make_job(tmp_path, frames_dir, obs=slow_obs(), workers=1)

        def abort_soon():
            for _ in range(2000):
                if job.shutdown is not None and job._completed_ids:
                    job.shutdown.request_abort("test")
                    return
                time.sleep(0.005)
        threading.Thread(target=abort_soon, daemon=True).start()
        outcome = job.run()
        assert outcome.state == "aborted"
        assert outcome.exit_code == EXIT_ABORTED
        # the checkpoint is valid and resume completes the job
        outcome2 = BatchJob.resume(job.job_dir, lifecycle=FAST).run()
        assert outcome2.state == "completed"
        assert len(read_outputs(tmp_path / "out")) == 6


class TestWatchdogIntegration:
    def test_hung_frame_is_cancelled_and_dead_lettered(self, tmp_path,
                                                       frames_dir):
        # One frame stalls "forever"; the watchdog cancels it.
        obs = slow_obs("hang:rate=1.0,max=1,seconds=60;seed=1")
        job = make_job(
            tmp_path, frames_dir, obs=obs,
            lifecycle=LifecycleConfig(fsync=False, hang_timeout=0.2,
                                      watchdog_interval=0.02),
        )
        outcome = job.run()
        assert outcome.state == "completed"  # no pending frames
        assert outcome.exit_code == EXIT_RUNTIME  # but one dead letter
        assert len(outcome.failed) == 1
        assert len(outcome.completed) == 5
        state = JobJournal.replay(job.job_dir)
        [(fid, record)] = state.failed.items()
        assert record["error_type"] == "FrameHangError"
        # the hang landed in the metrics
        assert job.watch.hangs_total == 1

        # --replay-failures re-runs exactly the dead letter (no faults now)
        replay = BatchJob.resume(job.job_dir, lifecycle=FAST)
        outcome2 = replay.run(replay_failures=True)
        assert outcome2.executed == 1
        assert outcome2.exit_code == EXIT_OK
        assert not outcome2.failed
        assert len(read_outputs(tmp_path / "out")) == 6

    def test_replay_failures_with_clean_job_is_noop(self, tmp_path,
                                                    frames_dir):
        make_job(tmp_path, frames_dir).run()
        outcome = BatchJob.resume(tmp_path / "job", lifecycle=FAST).run(
            replay_failures=True)
        assert outcome.executed == 0
        assert outcome.exit_code == EXIT_OK


class TestShutdownCoordinator:
    def test_two_stage_contract(self):
        clock = [0.0]
        coord = ShutdownCoordinator(drain_timeout=5.0,
                                    clock=lambda: clock[0])
        assert not coord.draining and not coord.aborted
        coord.request_drain("first")
        assert coord.draining and not coord.aborted
        assert not coord.abandon()
        clock[0] = 5.1  # deadline blown -> abandon without abort
        assert coord.abandon() and not coord.aborted
        coord.request_abort("second")
        assert coord.aborted

    def test_signal_handler_escalates(self):
        import signal as _signal
        coord = ShutdownCoordinator(drain_timeout=5.0)
        coord._handle(_signal.SIGTERM, None)
        assert coord.draining and not coord.aborted
        coord._handle(_signal.SIGTERM, None)
        assert coord.aborted
        assert "SIGTERM" in coord.drain_reason

    def test_callbacks_fire_once(self):
        drains, aborts = [], []
        coord = ShutdownCoordinator(drain_timeout=5.0,
                                    on_drain=drains.append,
                                    on_abort=aborts.append)
        coord.request_drain("a")
        coord.request_drain("b")
        coord.request_abort("c")
        coord.request_abort("d")
        assert drains == ["a"] and aborts == ["c"]

    @pytest.mark.parametrize("aborted,draining,pending,failed,expected", [
        (False, False, 0, 0, EXIT_OK),
        (False, False, 0, 3, EXIT_RUNTIME),
        (False, True, 2, 0, EXIT_DRAINED),
        (False, True, 0, 0, EXIT_OK),      # drain finished everything
        (False, False, 2, 0, EXIT_RUNTIME),  # pending without drain: bug
        (True, True, 2, 1, EXIT_ABORTED),
    ])
    def test_exit_code_contract(self, aborted, draining, pending, failed,
                                expected):
        coord = ShutdownCoordinator(drain_timeout=5.0)
        if draining:
            coord.request_drain("t")
        if aborted:
            coord.request_abort("t")
        assert coord.exit_code(pending=pending, failed=failed) == expected

    def test_rejects_bad_drain_timeout(self):
        with pytest.raises(ConfigError):
            ShutdownCoordinator(drain_timeout=0)


class TestWatchdogUnit:
    def make(self, *, hang_timeout=1.0, capacity=2):
        clock = [0.0]
        watch = FrameWatch(clock=lambda: clock[0])
        sheds = []
        dog = Watchdog(watch, hang_timeout=hang_timeout, capacity=capacity,
                       on_shed=lambda: sheds.append(True))
        return clock, watch, dog, sheds

    def test_marks_overdue_frames_and_sets_cancel(self):
        clock, watch, dog, _ = self.make()
        token = watch.begin(0, "a.pgm")
        clock[0] = 0.5
        dog.tick()
        assert not token.is_set() and not watch.is_hung(0)
        clock[0] = 1.5
        dog.tick()
        assert token.is_set() and watch.is_hung(0)
        assert watch.hangs_total == 1
        dog.tick()  # idempotent: no double count
        assert watch.hangs_total == 1

    def test_finished_frames_are_never_marked(self):
        clock, watch, dog, _ = self.make()
        watch.begin(0, "a.pgm")
        watch.end(0)
        clock[0] = 10.0
        dog.tick()
        assert watch.hangs_total == 0

    def test_load_shedding_trips_when_all_workers_hung(self):
        clock, watch, dog, sheds = self.make(capacity=2)
        watch.begin(0, "a.pgm")
        watch.begin(1, "b.pgm")
        clock[0] = 2.0
        dog.tick()
        # both marked hung, but still inside the shed grace period
        assert watch.hangs_total == 2 and not dog.shedding
        clock[0] = 2.0 + dog.shed_grace
        dog.tick()
        assert dog.shedding and sheds == [True]
        dog.tick()  # latched: fires once
        assert sheds == [True]

    def test_no_shedding_below_capacity(self):
        clock, watch, dog, sheds = self.make(capacity=2)
        watch.begin(0, "a.pgm")
        clock[0] = 2.0
        dog.tick()
        clock[0] = 2.0 + dog.shed_grace
        dog.tick()
        assert watch.is_hung(0) and not dog.shedding

    def test_zombie_that_finishes_uncounts(self):
        clock, watch, dog, sheds = self.make(capacity=1)
        watch.begin(0, "a.pgm")
        clock[0] = 2.0
        dog.tick()
        watch.end(0)  # the cancel worked: the worker returned
        clock[0] = 2.0 + dog.shed_grace
        dog.tick()
        assert not dog.shedding

    def test_disabled_hang_detection_still_ticks(self):
        ticks = []
        watch = FrameWatch()
        dog = Watchdog(watch, hang_timeout=None,
                       on_tick=lambda: ticks.append(1))
        watch.begin(0, "a.pgm")
        dog.tick()
        assert ticks == [1] and watch.hangs_total == 0

    def test_rejects_bad_hang_timeout(self):
        with pytest.raises(ConfigError):
            Watchdog(FrameWatch(), hang_timeout=-1)

    def test_cancel_all_sets_every_token(self):
        watch = FrameWatch()
        tokens = [watch.begin(i, f"{i}.pgm") for i in range(3)]
        assert watch.cancel_all() == 3
        assert all(t.is_set() for t in tokens)


class TestHealthFileWriters:
    def test_concurrent_writes(self, tmp_path):
        # The watchdog and the frame collector both write the health file;
        # a short switch interval interleaves their writes.
        path = tmp_path / "health.json"
        reporter = HealthReporter(job_id="race", frames_total=400,
                                  path=path)
        start = threading.Barrier(2, timeout=10)
        errors = []

        def writer():
            try:
                start.wait()
                for i in range(300):
                    reporter.update(completed=i)
                    reporter.write()
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert json.loads(path.read_text())["job_id"] == "race"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["health.json"]
