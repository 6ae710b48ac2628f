"""The ``tofu-repro verify`` subcommand and coded CLI error output."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def saved_model(tmp_path):
    path = tmp_path / "model.json"
    rc = main([
        "compile", "--model", "mlp", "--batch", "8", "--hidden", "32",
        "--layers", "2", "--workers", "2", "--strategy", "tofu",
        "--save", str(path),
    ])
    assert rc == 0
    return path


def test_verify_saved_model_exits_zero(saved_model, capsys):
    rc = main(["verify", str(saved_model)])
    out, err = capsys.readouterr()
    assert rc == 0
    assert "0 finding(s)" in out
    assert err == ""


def test_verify_unknown_artifact_exits_one_with_code(capsys):
    rc = main(["verify", "no-such-artifact"])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "error: [ANA014_UNKNOWN_ARTIFACT]" in err


def test_verify_tampered_model_reports_findings(saved_model, capsys):
    payload = json.loads(saved_model.read_text())
    payload["plan"]["num_workers"] += 1  # break shard/worker conservation
    saved_model.write_text(json.dumps(payload))
    rc = main(["verify", str(saved_model)])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "ANA002_WORKER_MISMATCH" in err
    assert "finding(s)" in out


def test_verify_cached_program_by_key(tmp_path, capsys):
    from repro.models.mlp import build_mlp
    from repro.runtime import Executor, ExecutorConfig
    from repro.runtime.cache import lowered_cache_key
    from repro.sim.device import k80_8gpu_machine

    bundle = build_mlp(batch_size=8, input_dim=32, hidden_dim=32,
                       num_layers=2, num_classes=8)
    machine = k80_8gpu_machine(2)
    cache_dir = tmp_path / "programs"
    executor = Executor(
        ExecutorConfig(program_cache_dir=str(cache_dir)))
    executor.lower(bundle.graph, machine=machine, backend="single-device")
    key = lowered_cache_key(bundle.graph, machine, "single-device", {})
    rc = main(["verify", key, "--program-cache-dir", str(cache_dir)])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "cached program" in out and "0 finding(s)" in out


def test_verify_undecodable_cached_program_exits_one_with_code(tmp_path, capsys):
    from repro.models.mlp import build_mlp
    from repro.runtime import Executor, ExecutorConfig
    from repro.runtime.cache import lowered_cache_key
    from repro.sim.device import k80_8gpu_machine

    bundle = build_mlp(batch_size=8, input_dim=32, hidden_dim=32,
                       num_layers=2, num_classes=8)
    machine = k80_8gpu_machine(2)
    cache_dir = tmp_path / "programs"
    Executor(ExecutorConfig(program_cache_dir=str(cache_dir))).lower(
        bundle.graph, machine=machine, backend="single-device")
    key = lowered_cache_key(bundle.graph, machine, "single-device", {})
    path = cache_dir / f"{key}.json"
    entry = json.loads(path.read_text())
    entry["program"]["version"] = 0
    path.write_text(json.dumps(entry))
    rc = main(["verify", key, "--program-cache-dir", str(cache_dir)])
    _, err = capsys.readouterr()
    assert rc == 1
    assert err.startswith("error: [ANA015_UNDECODABLE_ARTIFACT]")
