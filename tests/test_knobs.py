"""The knob table (repro.knobs): one parse rule for every REPRO_* value,
docs that match the table, and a net layer that stays lazy at runtime."""

import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.api.config import ENV_CATALOG
from repro.cli import main
from repro.errors import ConfigError
from repro.knobs import TABLE, env

REPO_ROOT = Path(__file__).resolve().parent.parent


def _bad_values():
    """(name, case, raw) for every row x {garbage, blank, out of range}
    that applies to the row's kind."""
    for knob in TABLE.values():
        if knob.kind == "int":
            yield knob.name, "garbage", "abc"
            yield knob.name, "fraction", "2.7"
            yield knob.name, "nan", "nan"
            yield knob.name, "inf", "inf"
            if knob.minimum is not None:
                yield knob.name, "out_of_range", str(knob.minimum - 1)
            if knob.maximum is not None:
                yield knob.name, "above_range", str(knob.maximum + 1)
        elif knob.kind == "float":
            yield knob.name, "garbage", "abc"
            yield knob.name, "nan", "nan"
            yield knob.name, "inf", "inf"
            yield knob.name, "out_of_range", "-1"
        elif knob.kind == "onoff" or knob.registry() is not None:
            yield knob.name, "garbage", "no-such-value"


@pytest.mark.parametrize("name,case,raw", [
    pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in _bad_values()])
def test_bad_value_is_config_error_naming_the_variable(monkeypatch, name,
                                                       case, raw):
    monkeypatch.setenv(name, raw)
    with pytest.raises(ConfigError, match=name):
        env(name)


@pytest.mark.parametrize("name", list(TABLE))
def test_blank_means_unset(monkeypatch, name):
    monkeypatch.setenv(name, "  ")
    assert env(name) == TABLE[name].default


def test_int_knobs_take_integral_numbers(monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLES", "1e3")
    assert env("REPRO_SAMPLES") == 1000
    monkeypatch.setenv("REPRO_WORK_BUDGET", " 12345678901234567890 ")
    assert env("REPRO_WORK_BUDGET") == 12345678901234567890


def test_registry_knob_names_registered_keys(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "gpu")
    with pytest.raises(ConfigError, match="unknown backend 'gpu'; "
                                          "choose from .*processes"):
        env("REPRO_BACKEND")


def test_catalog_is_the_table():
    assert ENV_CATALOG == tuple(TABLE)
    assert set(ENV_CATALOG) == {
        "REPRO_WORKERS", "REPRO_BACKEND", "REPRO_TRANSPORT", "REPRO_HOSTS",
        "REPRO_SAMPLES", "REPRO_SEED", "REPRO_SCALE", "REPRO_WORK_BUDGET",
        "REPRO_KERNEL", "REPRO_MEMORY_TUPLES", "REPRO_PROFILE",
        "REPRO_TRACE", "REPRO_LOG", "REPRO_BIND_HOST",
        "REPRO_ADVERTISE_HOST",
        "REPRO_SERVICE_PORT", "REPRO_RESULT_CACHE_BYTES",
        "REPRO_MAX_CONCURRENT"}


@pytest.mark.parametrize("argv", [["run", "wb", "Q1", "--engine", "hcubej"],
                                  ["datasets"]])
@pytest.mark.parametrize("raw", ["abc", "nan"])
def test_cli_bad_scale_exits_2(capsys, monkeypatch, argv, raw):
    monkeypatch.setenv("REPRO_SCALE", raw)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: REPRO_SCALE")
    assert "Traceback" not in err


# -- docs/api.md ---------------------------------------------------------------

def _doc_env_rows() -> dict[str, str]:
    """REPRO_* name -> its row in docs/api.md's env tables."""
    text = (REPO_ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    rows = {}
    for line in text.splitlines():
        if line.startswith("|"):
            for name in re.findall(r"`(REPRO_[A-Z0-9_]+)`", line):
                rows[name] = line
    return rows


def test_docs_env_tables_match_the_knob_table():
    rows = _doc_env_rows()
    assert set(rows) == set(TABLE)
    for knob in TABLE.values():
        row = rows[knob.name]
        assert (knob.shown_default or "None") in row, (knob.name, row)
        if knob.field is not None:
            assert f"`{knob.field}`" in row, (knob.name, row)


# -- the net layer stays lazy ------------------------------------------------

def test_net_layer_not_imported_by_a_local_session():
    script = textwrap.dedent("""
        import sys
        import repro, repro.api, repro.cli, repro.analysis
        from repro.runtime import BACKENDS, TRANSPORTS

        repro.cli.build_parser()
        assert {"tcp", "remote"} <= set(TRANSPORTS.keys() + BACKENDS.keys())
        with repro.JoinSession(workers=2, backend="threads",
                               transport="shm", scale=1e-5,
                               samples=10) as session:
            assert session.query("wb", "Q1").run("hcubej").ok
        loaded = sorted(m for m in sys.modules if m.startswith("repro.net"))
        assert not loaded, loaded
    """)
    env_vars = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": ""}
    proc = subprocess.run([sys.executable, "-c", script], env=env_vars,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
