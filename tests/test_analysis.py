"""Tests for repro.analysis: every rule fires on a bad fixture and
stays quiet on a good one, suppressions need reasons, and the
repository itself lints clean."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (Finding, LintConfig, available_checkers,
                            checker_spec, register_checker, run)
from repro.analysis.registry import create_checker
from repro.errors import ConfigError

REPO_ROOT = Path(__file__).resolve().parent.parent


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def lint_source(tmp_path, source, *, rules=None, name="mod.py",
                **config_kwargs):
    """Lint one synthetic module and return its findings."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    config_kwargs.setdefault("env_catalog_override", frozenset())
    config_kwargs.setdefault("registry_keys_override", {})
    config_kwargs.setdefault("documented_env_override", frozenset())
    config = LintConfig(root=tmp_path, **config_kwargs)
    return run([path], rules=rules, config=config)


def rules_of(findings):
    return {f.rule for f in findings}


# ---------------------------------------------------------------------------
# registry


def test_all_six_rules_registered():
    rules = available_checkers()
    assert set(rules) >= {"spawn-safety", "lazy-net", "lock-discipline",
                          "env-registry", "registry-consistency",
                          "error-taxonomy"}
    for rule in rules:
        spec = checker_spec(rule)
        assert spec.summary
        assert create_checker(rule).rule == rule


def test_duplicate_checker_registration_rejected():
    with pytest.raises(ConfigError):
        register_checker("spawn-safety", object)


def test_unknown_rule_rejected(tmp_path):
    with pytest.raises(ConfigError):
        lint_source(tmp_path, "x = 1\n", rules=["no-such-rule"])


# ---------------------------------------------------------------------------
# spawn-safety


def test_spawn_safety_fires_on_lambda_over_seam(tmp_path):
    findings = lint_source(tmp_path, """
        def go(executor, tasks):
            return executor.map_tasks(lambda t: t, tasks)
    """, rules=["spawn-safety"])
    assert rules_of(findings) == {"spawn-safety"}


def test_spawn_safety_fires_on_local_def_and_bound_method(tmp_path):
    findings = lint_source(tmp_path, """
        class Driver:
            def go(self, executor, tasks):
                def helper(t):
                    return t
                executor.submit_tasks(helper, tasks)
                executor.map_tasks(self.handle, tasks)
    """, rules=["spawn-safety"])
    assert len(findings) == 2


def test_spawn_safety_fires_on_lambda_in_task_payload(tmp_path):
    findings = lint_source(tmp_path, """
        def build(kernel):
            return WorkerTask(cube=(0,), kernel=lambda q: q)
    """, rules=["spawn-safety"])
    assert rules_of(findings) == {"spawn-safety"}
    assert "kernel" in findings[0].message


def test_spawn_safety_clean_on_module_level_callable(tmp_path):
    findings = lint_source(tmp_path, """
        from functools import partial

        def execute_worker_task(task):
            return task

        def go(executor, tasks):
            executor.map_tasks(execute_worker_task, tasks)
            executor.submit_tasks(partial(execute_worker_task), tasks)
            return WorkerTask(cube=(0,), kernel="adaptive")
    """, rules=["spawn-safety"])
    assert findings == []


# ---------------------------------------------------------------------------
# lazy-net


def test_lazy_net_fires_on_module_scope_import(tmp_path):
    findings = lint_source(
        tmp_path, "from repro.net import WorkerAgent\n",
        rules=["lazy-net"])
    assert rules_of(findings) == {"lazy-net"}


def test_lazy_net_fires_on_plain_import(tmp_path):
    findings = lint_source(tmp_path, "import repro.net.transport\n",
                           rules=["lazy-net"])
    assert rules_of(findings) == {"lazy-net"}


def test_lazy_net_fires_on_relative_import(tmp_path):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "__init__.py").write_text("")
    findings = lint_source(
        tmp_path, "from .net import executor\n", rules=["lazy-net"],
        name="repro/runtime.py")
    assert rules_of(findings) == {"lazy-net"}


def test_lazy_net_clean_on_function_local_import(tmp_path):
    findings = lint_source(tmp_path, """
        def serve():
            from repro.net import WorkerAgent
            return WorkerAgent
    """, rules=["lazy-net"])
    assert findings == []


def test_lazy_net_clean_inside_net_package(tmp_path):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "__init__.py").write_text("")
    (tmp_path / "repro" / "net").mkdir()
    (tmp_path / "repro" / "net" / "__init__.py").write_text("")
    findings = lint_source(
        tmp_path, "from repro.net.protocol import request\n",
        rules=["lazy-net"], name="repro/net/agent.py")
    assert findings == []


# ---------------------------------------------------------------------------
# lock-discipline


_UNLOCKED_TRANSPORT = """
    class DemoTransport:
        def publish(self, epoch, block):
            self.stats.published_blocks += 1
            self._staged[epoch] = block
"""

_LOCKED_TRANSPORT = """
    class DemoTransport:
        def publish(self, epoch, block):
            with self._lock:
                self.stats.published_blocks += 1
                self._staged[epoch] = block

        def _teardown_locked(self, epoch):
            self._staged.pop(epoch, None)
            self.last_epoch = epoch

        def __init__(self):
            self.stats.published_blocks = 0
"""


def test_lock_discipline_fires_on_unlocked_mutations(tmp_path):
    findings = lint_source(tmp_path, _UNLOCKED_TRANSPORT,
                           rules=["lock-discipline"])
    assert len(findings) == 2
    assert rules_of(findings) == {"lock-discipline"}


def test_lock_discipline_clean_under_lock_and_exemptions(tmp_path):
    findings = lint_source(tmp_path, _LOCKED_TRANSPORT,
                           rules=["lock-discipline"])
    assert findings == []


def test_lock_discipline_ignores_non_transport_classes(tmp_path):
    findings = lint_source(tmp_path, """
        class Ledger:
            def add(self, epoch):
                self._entries[epoch] = 1
    """, rules=["lock-discipline"])
    assert findings == []


# ---------------------------------------------------------------------------
# env-registry


def test_env_registry_fires_on_undeclared_read(tmp_path):
    findings = lint_source(tmp_path, """
        import os
        value = os.environ.get("REPRO_MYSTERY")
    """, rules=["env-registry"])
    assert rules_of(findings) == {"env-registry"}
    assert "REPRO_MYSTERY" in findings[0].message


def test_env_registry_fires_on_undocumented_constant(tmp_path):
    findings = lint_source(tmp_path, """
        DEMO_ENV_VAR = "REPRO_DEMO"
    """, rules=["env-registry"],
        env_catalog_override=frozenset({"REPRO_DEMO"}),
        documented_env_override=frozenset())
    assert rules_of(findings) == {"env-registry"}
    assert "not documented" in findings[0].message


def test_env_registry_clean_when_declared_and_documented(tmp_path):
    findings = lint_source(tmp_path, """
        import os
        DEMO_ENV_VAR = "REPRO_DEMO"
        value = os.environ["REPRO_DEMO"]
    """, rules=["env-registry"],
        env_catalog_override=frozenset({"REPRO_DEMO"}),
        documented_env_override=frozenset({"REPRO_DEMO"}))
    assert findings == []


def test_env_registry_exempts_bench_namespace(tmp_path):
    findings = lint_source(tmp_path, """
        import os
        scale = os.environ.get("REPRO_BENCH_SCALE", "1")
    """, rules=["env-registry"])
    assert findings == []


# ---------------------------------------------------------------------------
# registry-consistency


def test_registry_consistency_fires_on_dynamic_key(tmp_path):
    findings = lint_source(tmp_path, """
        def install(name, cls):
            register_kernel(name, cls)
    """, rules=["registry-consistency"])
    assert rules_of(findings) == {"registry-consistency"}


def test_registry_consistency_fires_on_duplicate_key(tmp_path):
    findings = lint_source(tmp_path, """
        register_kernel("wcoj", A)
        register_kernel("wcoj", B)
    """, rules=["registry-consistency"])
    assert len(findings) == 1
    assert "again" in findings[0].message


def test_registry_consistency_fires_on_hand_rolled_lineup(tmp_path):
    findings = lint_source(
        tmp_path, 'LINEUP = ("adj", "hcubej")\n',
        rules=["registry-consistency"],
        registry_keys_override={
            "engines": frozenset({"adj", "hcubej", "sparksql"})})
    assert rules_of(findings) == {"registry-consistency"}


def test_registry_consistency_clean_on_constants_and_home(tmp_path):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "__init__.py").write_text("")
    (tmp_path / "repro" / "engines").mkdir()
    (tmp_path / "repro" / "engines" / "__init__.py").write_text("")
    findings = lint_source(tmp_path, """
        RULE = "adj"
        BUILTINS = ("adj", "hcubej")
        register_engine(RULE, object)
    """, rules=["registry-consistency"],
        registry_keys_override={
            "engines": frozenset({"adj", "hcubej", "sparksql"})},
        name="repro/engines/builtin.py")
    assert findings == []


# ---------------------------------------------------------------------------
# error-taxonomy


def test_error_taxonomy_fires_on_builtin_raise(tmp_path):
    findings = lint_source(tmp_path, """
        def check(x):
            if x < 0:
                raise ValueError("negative")
    """, rules=["error-taxonomy"])
    assert rules_of(findings) == {"error-taxonomy"}


def test_error_taxonomy_allows_protocol_exceptions(tmp_path):
    findings = lint_source(tmp_path, """
        def get(self, key):
            raise KeyError(key)

        def todo(self):
            raise NotImplementedError

        def convert(self):
            raise ConfigError("bad knob")
    """, rules=["error-taxonomy"])
    assert findings == []


def test_error_taxonomy_fires_on_bad_metric_and_span_names(tmp_path):
    findings = lint_source(tmp_path, """
        def record(metrics, tracer):
            metrics.counter("PublishedBytes").inc()
            metrics.counter("flat").inc()
            with tracer.span("Worker Task"):
                pass
    """, rules=["error-taxonomy"])
    assert len(findings) == 3


def test_error_taxonomy_clean_on_conventional_names(tmp_path):
    findings = lint_source(tmp_path, """
        def record(metrics, tracer):
            metrics.counter("transport.published_bytes").inc()
            metrics.histogram("scheduler.route_seconds")
            with tracer.span("worker_task", cat="runtime"):
                pass
            with tracer.span(f"route_{x}"):
                pass
    """, rules=["error-taxonomy"])
    assert findings == []


# ---------------------------------------------------------------------------
# suppressions


def test_suppression_with_reason_silences_finding(tmp_path):
    findings = lint_source(tmp_path, """
        def check(x):
            # repro: lint-ignore[error-taxonomy] stdlib contract here
            raise ValueError("negative")
    """, rules=["error-taxonomy"])
    assert findings == []


def test_suppression_inline_covers_own_line(tmp_path):
    findings = lint_source(tmp_path, """
        def check(x):
            raise ValueError("bad")  # repro: lint-ignore[error-taxonomy] intentional
    """, rules=["error-taxonomy"])
    assert findings == []


def test_suppression_without_reason_is_a_finding(tmp_path):
    findings = lint_source(tmp_path, """
        def check(x):
            # repro: lint-ignore[error-taxonomy]
            raise ValueError("negative")
    """, rules=["error-taxonomy"])
    assert rules_of(findings) == {"lint-ignore", "error-taxonomy"}


def test_suppression_of_unknown_rule_is_a_finding(tmp_path):
    findings = lint_source(
        tmp_path, "x = 1  # repro: lint-ignore[no-such-rule] why\n")
    assert rules_of(findings) == {"lint-ignore"}


def test_suppression_only_silences_named_rule(tmp_path):
    findings = lint_source(tmp_path, """
        def go(executor, tasks):
            # repro: lint-ignore[error-taxonomy] wrong rule named
            executor.map_tasks(lambda t: t, tasks)
    """, rules=["spawn-safety", "error-taxonomy"])
    assert rules_of(findings) == {"spawn-safety"}


# ---------------------------------------------------------------------------
# finding identity


def test_fingerprint_ignores_line_numbers():
    a = Finding(path="x.py", line=3, col=0, rule="lazy-net", message="m")
    b = Finding(path="x.py", line=99, col=4, rule="lazy-net", message="m")
    assert a.fingerprint == b.fingerprint
    assert a.as_dict()["fingerprint"] == a.fingerprint


# ---------------------------------------------------------------------------
# engine plumbing


def test_parse_error_is_a_finding(tmp_path):
    findings = lint_source(tmp_path, "def broken(:\n")
    assert rules_of(findings) == {"parse-error"}


def test_missing_path_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        run([tmp_path / "nope"], config=LintConfig(root=tmp_path))


# ---------------------------------------------------------------------------
# the repository itself


def test_repository_lints_clean():
    config = LintConfig(root=REPO_ROOT)
    findings = run([REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks"],
                   config=config)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_lint_exits_zero_on_repo():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--json"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env=_cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["count"] == 0


def test_cli_lint_nonzero_on_finding(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import repro.net\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(bad),
         "--rules", "lazy-net", "--root", str(REPO_ROOT)],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env=_cli_env(), timeout=120)
    assert proc.returncode == 1
    assert "lazy-net" in proc.stdout


def test_cli_lint_list_rules():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--list-rules"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env=_cli_env(), timeout=120)
    assert proc.returncode == 0
    for rule in ("spawn-safety", "lazy-net", "lock-discipline",
                 "env-registry", "registry-consistency",
                 "error-taxonomy"):
        assert rule in proc.stdout
