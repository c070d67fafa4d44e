"""Smoke tests for the CLI (python -m repro) through main(argv).

Exercises every subcommand at tiny scale, the engines-disagree exit
code, registry-driven --engine choices, config errors as one-line
exits, and executor cleanup on ``--engine all`` runs.
"""

import pytest

from repro.cli import build_parser, main
from repro.distributed.metrics import CostBreakdown
from repro.engines import registry
from repro.engines.base import EngineResult
from repro.runtime.executor import Executor, SerialExecutor
from repro.runtime.transport import default_transport_name

SMALL = ["--scale", "1e-5", "--samples", "10"]


class TestSmoke:
    def test_datasets(self, capsys):
        assert main(["datasets", "--scale", "1e-5"]) == 0
        out = capsys.readouterr().out
        for key in ("wb", "lj", "ok"):
            assert key in out

    def test_queries(self, capsys):
        assert main(["queries"]) == 0
        out = capsys.readouterr().out
        assert "Q1" in out and "Q11" in out

    def test_run_single_engine(self, capsys):
        assert main(["run", "wb", "Q1", "--engine", "adj", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "ADJ" in out
        assert f"transport={default_transport_name()}" in out

    def test_run_all_engines(self, capsys):
        assert main(["run", "wb", "Q1", "--engine", "all", *SMALL]) == 0
        out = capsys.readouterr().out
        for display in ("SparkSQL", "BigJoin", "HCubeJ", "HCubeJ+Cache",
                        "ADJ", "Yannakakis"):
            assert display in out

    def test_run_runtime_backend(self, capsys):
        assert main(["run", "wb", "Q1", "--engine", "hcubej",
                     "--backend", "threads", "--transport", "pickle",
                     *SMALL]) == 0
        out = capsys.readouterr().out
        assert "backend=threads" in out
        assert "transport=pickle" in out

    def test_plan(self, capsys):
        assert main(["plan", "wb", "Q1", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "hypertree" in out
        assert "plan[" in out
        assert "modeled cost" in out

    def test_estimate_with_check(self, capsys):
        assert main(["estimate", "wb", "Q1", "--check", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "estimate:" in out
        assert "true:" in out


class TestEnvPrecedence:
    def test_env_workers_apply_when_flag_omitted(self, monkeypatch,
                                                 capsys):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert main(["run", "wb", "Q1", "--engine", "hcubej",
                     *SMALL]) == 0
        assert "4 workers" in capsys.readouterr().out

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert main(["run", "wb", "Q1", "--engine", "hcubej",
                     "--workers", "6", *SMALL]) == 0
        assert "6 workers" in capsys.readouterr().out

    def test_env_scale_applies_when_flag_omitted(self, monkeypatch,
                                                 capsys):
        monkeypatch.setenv("REPRO_SCALE", "1e-5")
        assert main(["run", "wb", "Q1", "--engine", "hcubej",
                     "--samples", "10"]) == 0
        out = capsys.readouterr().out
        assert "200 edges/relation" in out  # 1e-5 of WB, not 2e-5


class TestEngineChoices:
    def test_choices_come_from_registry(self):
        parser = build_parser()
        args = parser.parse_args(["run", "wb", "Q1"])
        assert args.engine == "adj"
        for key in registry.available():
            parser.parse_args(["run", "wb", "Q1", "--engine", key])
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "wb", "Q1", "--engine", "nope"])

    def test_unknown_engine_message_names_registry_keys(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "wb", "Q1", "--engine", "nope"])
        err = capsys.readouterr().err
        for key in registry.available():
            assert key in err


class TestDisagreement:
    def test_exit_code_1_when_engines_disagree(self, monkeypatch, capsys):
        """A lying engine flips the agreement check to exit code 1."""

        class Liar:
            name = "Liar"

            def run(self, query, db, cluster, executor=None):
                return EngineResult(engine=self.name, query=query.name,
                                    count=-42,
                                    breakdown=CostBreakdown())

        real_create = registry.create

        def lying_create(key, options=None, **overrides):
            if key == "hcubej":
                return Liar()
            return real_create(key, options, **overrides)

        monkeypatch.setattr(registry, "create", lying_create)
        assert main(["run", "wb", "Q1", "--engine", "all", *SMALL]) == 1
        captured = capsys.readouterr()
        assert "engines disagree" in captured.err

    def test_failed_engines_do_not_trip_agreement(self, monkeypatch,
                                                  capsys):
        """An engine failure renders as FAILED but exits 0."""

        class Failing:
            name = "Failing"

            def run(self, query, db, cluster, executor=None):
                return EngineResult(engine=self.name, query=query.name,
                                    count=-1, breakdown=CostBreakdown(),
                                    failure="oom")

        real_create = registry.create

        def failing_create(key, options=None, **overrides):
            if key == "sparksql":
                return Failing()
            return real_create(key, options, **overrides)

        monkeypatch.setattr(registry, "create", failing_create)
        assert main(["run", "wb", "Q1", "--engine", "all", *SMALL]) == 0
        assert "FAILED (oom)" in capsys.readouterr().out


class TestExecutorCleanup:
    @pytest.mark.parametrize("engine", ["all", "adj"])
    def test_engine_runs_close_their_executor(self, monkeypatch, engine):
        """The session tears down the executor the run created."""
        closed = []
        original_close = Executor.close

        def tracking_close(self):
            closed.append(self)
            original_close(self)

        monkeypatch.setattr(Executor, "close", tracking_close)
        assert main(["run", "wb", "Q1", "--engine", engine,
                     "--backend", "threads", *SMALL]) == 0
        assert closed, "executor was never closed"
        assert all(ex._pool is None for ex in closed)

    def test_serial_run_creates_only_a_serial_executor(self, monkeypatch):
        created = []
        original_init = Executor.__init__

        def tracking_init(self, *args, **kwargs):
            created.append(self)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(Executor, "__init__", tracking_init)
        assert main(["run", "wb", "Q1", "--engine", "hcubej",
                     *SMALL]) == 0
        assert [type(ex) for ex in created] == [SerialExecutor]


class TestConfigErrors:
    """A ConfigError is a user error: ``error: <message>``, exit 2."""

    def test_bad_worker_count(self, capsys):
        assert main(["run", "wb", "Q1", "--workers", "0", *SMALL]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: workers must be >= 1")
        assert "Traceback" not in captured.err

    def test_remote_backend_without_hosts(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_HOSTS", raising=False)
        assert main(["run", "wb", "Q1", "--backend", "remote",
                     *SMALL]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "--hosts" in captured.err

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "eight")
        assert main(["plan", "wb", "Q1", *SMALL]) == 2
        assert "REPRO_WORKERS" in capsys.readouterr().err
