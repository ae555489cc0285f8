"""Config layer and command-line behaviours: exit codes, artifacts, manifests."""

import dataclasses
import hashlib
import importlib.util
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from hardyheat.cli import main
from hardyheat.config import (
    ConfigError,
    RunConfig,
    dumps,
    format_value,
    load_config,
    parse_kv,
    parse_value,
)
from hardyheat.verify import EXPERIMENTS


# -- config parsing ----------------------------------------------------------------


def test_parse_kv_comments_and_blanks():
    text = "# header\n\nseed = 3   # trailing\n out_dir= results \n"
    assert parse_kv(text) == {"seed": "3", "out_dir": "results"}


@pytest.mark.parametrize("bad", ["seed 3", "= 3", "seed=1\nseed=2"])
def test_parse_kv_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        parse_kv(bad)


def test_parse_value_types():
    assert parse_value("k", "7", int) == 7
    assert parse_value("k", "0.5", float) == 0.5
    assert parse_value("k", "8, 16 ,32", tuple) == (8.0, 16.0, 32.0)
    assert parse_value("k", "true", bool) is True
    with pytest.raises(ConfigError):
        parse_value("k", "inf", float)
    with pytest.raises(ConfigError):
        parse_value("k", "x", int)


def test_load_config_flags_beat_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nout_dir = fromfile\nn_atoms = 5\n")
    config = load_config(cfg, {"seed": "9"})
    assert config.settings.seed == 9          # flag wins
    assert config.out_dir == "fromfile"       # file value survives
    assert config.settings.n_atoms == 5


def test_load_config_rejects_unknown_and_invalid(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(None, {"not_a_key": "1"})
    with pytest.raises(ConfigError, match="n must be 1 or 2"):
        load_config(None, {"n": "3"})
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.cfg", {})
    with pytest.raises(ConfigError, match="strictly increasing"):
        load_config(None, {"growth_T_values": "16,8"})
    with pytest.raises(ConfigError, match="positive integer"):
        load_config(None, {"oracle_grid": "4.0,63.5,4.0,16"})
    with pytest.raises(ConfigError, match="unknown experiment"):
        load_config(None, {"experiments": "nope"})


def test_dumps_parse_round_trip():
    config = load_config(None, {"seed": "11", "growth_T_values": "8,16",
                                "experiments": "growth_T,lp_probe"})
    text = dumps(config)
    again = load_config(None, parse_kv(text))
    assert dumps(again) == text


@hyp_settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       tol=st.floats(1e-12, 1e3, allow_nan=False, allow_infinity=False))
def test_round_trip_preserves_values_exactly(seed, tol):
    config = load_config(None, {"seed": str(seed), "moment_rel_tol": repr(tol)})
    again = load_config(None, parse_kv(dumps(config)))
    assert again.settings.seed == seed
    assert again.settings.moment_rel_tol == tol  # repr round-trips floats


def test_format_value_tuple():
    assert format_value((8.0, 16.0)) == "8.0,16.0"
    assert format_value(True) == "true"


def test_default_experiments_is_full_catalogue():
    assert RunConfig().resolved_experiments() == tuple(EXPERIMENTS)


def test_config_file_experiments_accept_aliases():
    config = load_config(None, {"experiments": "certify-T,growth_Tstar"})
    assert config.resolved_experiments() == ("atom_images", "growth_Tstar")
    assert dumps(config).startswith("experiments = atom_images,growth_Tstar\n")


# -- list / describe ---------------------------------------------------------------


def test_list_prints_catalogue(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    assert "alias: certify-T" in out


def test_describe_resolves_alias_and_prints_claim(capsys):
    assert main(["describe", "counterexample-T"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("growth_T")
    assert EXPERIMENTS["growth_T"].claim in out
    assert "growth_T_values = " in out
    # every gate, with the value of its bound
    assert "    dyadic_spread <= dyadic_spread = 0.2\n" in out
    assert "    min_dyadic_increment > 0.0\n" in out
    assert "    h1r_bound_finite == true\n" in out


def test_describe_prints_fit_slack_and_gate_dims(capsys):
    assert main(["describe", "certify-T", "roundtrips"]) == 0
    out = capsys.readouterr().out
    assert "    min_fitted_alpha >= alpha = 0.5 less 1e-09\n" in out
    assert "    overlap_max <= 64 (n = 2)\n" in out


def test_describe_unknown_exits_2(capsys):
    assert main(["describe", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_every_experiment_has_claim_and_schema():
    for name, exp in EXPERIMENTS.items():
        assert exp.name == name and exp.claim
        assert "n" in exp.reads
        for gate in exp.gates:
            if isinstance(gate.bound, str):
                assert gate.bound in exp.reads
    aliases = [e.alias for e in EXPERIMENTS.values() if e.alias]
    assert len(aliases) == len(set(aliases)) == 4


# -- run ---------------------------------------------------------------------------

FAST_RUN = ["--set", "n_roundtrip_balls=4", "--set", "n_hz_given=1",
            "--set", "l2_inputs=2"]


def _read_all(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_run_writes_artifacts_and_manifest(tmp_path, capsys):
    out = tmp_path / "res"
    code = main(["run", "roundtrips", "growth_Tstar", "--seed", "2",
                 "--out", str(out), *FAST_RUN])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "pass  roundtrips" in stdout
    files = _read_all(out)
    assert set(files) == {"roundtrips.json", "growth_Tstar.json",
                          "growth_Tstar.csv", "manifest.txt"}
    doc = json.loads(files["roundtrips.json"].decode("utf-8"))
    assert doc["passed"] is True
    assert doc["experiment"] == "roundtrips"
    manifest = files["manifest.txt"].decode("utf-8").splitlines()
    assert manifest[0] == "# hardyheat run manifest"
    assert any(line.startswith("seed = 2") for line in manifest)
    # hash lines verify against the bytes on disk
    for line in manifest:
        if line.startswith("artifact "):
            _, digest, fname = line.split()
            assert hashlib.sha256(files[fname]).hexdigest() == digest


def test_run_csv_is_rfc4180(tmp_path):
    out = tmp_path / "res"
    assert main(["run", "growth_Tstar", "--out", str(out)]) == 0
    blob = (out / "growth_Tstar.csv").read_bytes()
    lines = blob.split(b"\r\n")
    assert lines[0] == b"T,I_T"
    rows = [l for l in lines[1:] if l]
    assert len(rows) == 5
    for row in rows:
        T, I = row.split(b",")
        assert float(I) > 0 and float(T) >= 4

def test_run_repeat_is_byte_identical(tmp_path):
    out = tmp_path / "res"
    args = ["run", "roundtrips", "--seed", "5", "--out", str(out), *FAST_RUN]
    assert main(args) == 0
    first = _read_all(out)
    assert main(args) == 0
    assert _read_all(out) == first


def test_run_seed_changes_artifacts(tmp_path):
    out = tmp_path / "res"
    base = ["run", "roundtrips", "--out", str(out), *FAST_RUN]
    assert main([*base, "--seed", "5"]) == 0
    first = _read_all(out)["roundtrips.json"]
    assert main([*base, "--seed", "6"]) == 0
    second = _read_all(out)["roundtrips.json"]
    assert first != second


def test_run_manifest_ignores_out_dir(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    common = ["run", "roundtrips", "l2_stability", "--seed", "3", *FAST_RUN]
    assert main([*common, "--out", str(a)]) == 0
    assert main([*common, "--out", str(b)]) == 0
    manifest = (a / "manifest.txt").read_bytes()
    assert manifest == (b / "manifest.txt").read_bytes()
    assert b"out_dir" not in manifest


def test_run_has_no_threads_flag(tmp_path, capsys):
    # experiments run serially; there is no pool to size
    with pytest.raises(SystemExit) as exc:
        main(["run", "growth_Tstar", "--threads", "2", "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_run_rejects_threads_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiments = growth_Tstar\nthreads = 2\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "unknown config key 'threads'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_run_exception_is_a_failed_record(tmp_path, capsys, monkeypatch):
    def boom(settings):
        raise ValueError("degenerate sample; use another seed")

    exp = EXPERIMENTS["l2_stability"]
    monkeypatch.setitem(EXPERIMENTS, "l2_stability",
                        dataclasses.replace(exp, measure=boom))
    out = tmp_path / "res"
    code = main(["run", "l2_stability", "growth_Tstar", "--out", str(out),
                 *FAST_RUN])
    assert code == 1
    captured = capsys.readouterr()
    assert "FAIL  l2_stability" in captured.out
    assert "pass  growth_Tstar" in captured.out
    doc = json.loads((out / "l2_stability.json").read_text())
    assert doc["passed"] is False
    assert doc["tolerances"] == {"l2_drift": 0.1}
    assert doc["notes"] == ["raised ValueError: degenerate sample; use another seed"]
    assert json.loads((out / "growth_Tstar.json").read_text())["passed"] is True
    manifest = (out / "manifest.txt").read_text()
    assert "experiments = l2_stability,growth_Tstar" in manifest
    for fname in ("l2_stability.json", "growth_Tstar.json", "growth_Tstar.csv"):
        assert f"  {fname}\n" in manifest


def test_run_gate_failure_exits_1(tmp_path, capsys):
    out = tmp_path / "res"
    code = main(["run", "l2_stability", "--out", str(out),
                 "--set", "l2_inputs=2", "--set", "l2_drift=1e-12"])
    assert code == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "gate(s) failed" in captured.err
    doc = json.loads((out / "l2_stability.json").read_text())
    assert doc["passed"] is False  # artifact still written for post-mortem


def test_run_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "not found" in capsys.readouterr().err


def test_run_rejects_bad_set_and_tmax(tmp_path, capsys):
    assert main(["run", "--set", "novalue"]) == 2
    assert main(["run", "--tmax", "4"]) == 2
    capsys.readouterr()


def test_run_2d_on_1d_experiment_exits_2(tmp_path, capsys):
    code = main(["run", "lp_probe", "--n", "2", "--out", str(tmp_path / "r")])
    assert code == 2
    assert "one-dimensional" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # rejected before anything ran


@pytest.mark.parametrize("key, experiment, bad", [
    ("mean_times", "atom_images", 0),
    ("n_atoms", "atom_images", 0),
    ("n_tstar_atoms", "tstar_images", 0),
    ("l2_inputs", "l2_stability", 0),
    ("oracle_inputs", "telescoping_oracle", 0),
    ("n_roundtrip_balls", "roundtrips", -3),
    ("n_hz_given", "roundtrips", 0),
    ("J", "atom_images", 1),
])
def test_run_rejects_empty_counts(tmp_path, capsys, key, experiment, bad):
    # mean_times=0 used to pass atom_images with no time sampled; the others
    # crashed at run time (exit 1) after the output directory was made
    code = main(["run", experiment, "--set", f"{key}={bad}", "--out", str(tmp_path / "r")])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # rejected before anything ran


def test_run_2d_roundtrips(tmp_path):
    out = tmp_path / "res"
    code = main(["run", "roundtrips", "--n", "2", "--out", str(out),
                 "--set", "n_roundtrip_balls=3"])
    assert code == 0
    doc = json.loads((out / "roundtrips.json").read_text())
    assert doc["parameters"]["n"] == 2
    assert doc["measured"]["overlap_max"] <= 64


def test_run_tmax_sets_growth_values(tmp_path):
    out = tmp_path / "res"
    assert main(["run", "counterexample-T", "--tmax", "16",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "growth_T.json").read_text())
    assert doc["parameters"]["T_values"] == [8.0, 16.0]


def test_run_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiments = growth_Tstar\nseed = 1\n"
                   f"out_dir = {tmp_path / 'fromfile'}\n")
    assert main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "flag")]) == 0
    assert not (tmp_path / "fromfile").exists()
    assert (tmp_path / "flag" / "growth_Tstar.json").is_file()


def _seed_sweep():
    spec = importlib.util.spec_from_file_location(
        "seed_sweep", Path(__file__).resolve().parents[1] / "scripts" / "seed_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_sweep_against_reports_largest_drift_and_verdict_changes(capsys):
    sweep = _seed_sweep()
    assert sweep.drift(2.0, 2.0) == 0.0 and sweep.drift(0.0, 0.0) == 0.0
    assert sweep.drift(0.0, 1e-300) == math.inf
    old = [{"experiment": "e", "seed": s, "passed": True,
            "measured": {"a": 1.0, "b": -4.0}} for s in (0, 1)]
    new = [{"experiment": "e", "seed": 0, "passed": True,
            "measured": {"a": 1.0 + 1e-12, "b": -4.0}},
           {"experiment": "e", "seed": 1, "passed": False,
            "measured": {"a": 1.0 - 3e-12, "b": -4.0}},
           {"experiment": "e", "seed": 2, "passed": True, "measured": {"a": 9.0}}]
    sweep.print_drifts(new, old)
    out = capsys.readouterr().out.splitlines()
    assert "e seed=1 verdict pass -> FAIL" in out
    assert any(line.startswith("e drift a: 3e-12 at seed=1 ") for line in out)
    assert any(line.startswith("e drift b: 0 at seed=0 ") for line in out)
    assert len(out) == 3  # seed 2 has no old record
