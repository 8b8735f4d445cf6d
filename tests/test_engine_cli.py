"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    return tmp_path


def test_sweep_then_cache_stats(cache_dir, capsys):
    rc = main(["sweep", "l2", "--workloads", "ar", "--scale", "tiny",
               "--budget", "4000", "--workers", "2", "--quiet",
               "--metric", "ipc"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "l2 sweep" in out and "ar" in out

    rc = main(["cache", "stats"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "entries (indexed)" in out
    # Four L2 sizes for one workload, all cold.
    assert any("4" in line for line in out.splitlines()
               if "entries (indexed)" in line)
    assert any("4" in line for line in out.splitlines()
               if "misses" in line)


def test_cache_clear(cache_dir, capsys):
    main(["run", "ar", "--scale", "tiny", "--budget", "4000"])
    capsys.readouterr()
    rc = main(["cache", "clear"])
    assert rc == 0
    assert "cleared 1 entries" in capsys.readouterr().out


def test_run_reports_metrics(cache_dir, capsys):
    rc = main(["run", "ar", "--scale", "tiny", "--budget", "4000",
               "--freq-ghz", "2.0", "--no-cache"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ipc" in out and "top-down" in out
    # --no-cache must leave the store untouched.
    assert not (cache_dir / "manifest.json").exists()


def test_list_and_bad_workload(cache_dir, capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "frequency" in out and "ar" in out and "fig9" in out

    rc = main(["sweep", "l2", "--workloads", "nope", "--scale", "tiny",
               "--budget", "4000", "--quiet"])
    assert rc == 2


def test_characterize_subcommand(cache_dir, capsys):
    rc = main(["characterize", "ar", "co", "--scale", "tiny",
               "--budget", "2000", "--workers", "2", "--quiet"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "characterization" in out and "ar" in out and "co" in out
    assert "ipc" in out
    rc = main(["characterize", "nope", "--scale", "tiny", "--quiet"])
    assert rc == 2


def test_characterize_interval_tier(cache_dir, capsys):
    rc = main(["characterize", "ar", "--scale", "tiny", "--budget", "2000",
               "--model", "interval", "--gem5", "--quiet"])
    assert rc == 0
    assert "model=interval" in capsys.readouterr().out
    # Cached under the tier-suffixed, model-versioned key.
    assert any("_interval-v" in f.name for f in cache_dir.iterdir())


def test_figures_subcommand_writes_json(cache_dir, capsys, tmp_path):
    import json as jsonlib

    out_path = tmp_path / "fig7.json"
    rc = main(["figures", "fig7", "--scale", "tiny", "--model", "interval",
               "--quiet", "--out", str(out_path)])
    assert rc == 0
    data = jsonlib.loads(out_path.read_text())
    assert set(data) == {"fetch", "execute", "commit"}
    assert len(data["fetch"]) == 6

    rc = main(["figures", "fig7", "--scale", "tiny", "--model", "interval",
               "--quiet"])
    assert rc == 0
    printed = jsonlib.loads(capsys.readouterr().out)
    assert printed == data


def test_sweep_interval_model(cache_dir, capsys):
    rc = main(["sweep", "l2", "--workloads", "ar", "--scale", "tiny",
               "--budget", "4000", "--model", "interval", "--quiet"])
    assert rc == 0
    assert "model=interval" in capsys.readouterr().out


def test_cache_prune_subcommand(cache_dir, capsys):
    main(["sweep", "l2", "--workloads", "ar", "--scale", "tiny",
          "--budget", "4000", "--quiet"])
    capsys.readouterr()
    # No cap anywhere: refuse rather than silently no-op.
    rc = main(["cache", "prune"])
    assert rc == 2
    rc = main(["cache", "prune", "--max-mb", "0.0001"])
    assert rc == 0
    assert "pruned" in capsys.readouterr().out
    rc = main(["cache", "stats"])
    assert rc == 0
    assert "evictions" in capsys.readouterr().out


def test_sweep_adaptive_policy(cache_dir, capsys):
    # Explicit --cache-dir: the default path would reuse the process-
    # global runner, whose store was pinned by an earlier test's tmpdir.
    rc = main(["--cache-dir", str(cache_dir),
               "sweep", "l2", "--workloads", "ar", "--scale", "tiny",
               "--budget", "4000", "--policy", "adaptive", "--quiet",
               "--metric", "seconds"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "model=adaptive" in out
    assert "cells cycle-refined" in out and "cycle jobs run" in out
    # Mixed store: tier-suffixed interval keys next to plain cycle keys.
    names = [f.name for f in cache_dir.iterdir() if f.suffix == ".json"
             and f.name != "manifest.json"]
    assert any("_interval-v" in n for n in names)
    assert any("_interval-v" not in n for n in names)


def test_study_subcommand(cache_dir, capsys):
    rc = main(["study", "l2_kb=256,512", "--workloads", "ar,co",
               "--scale", "tiny", "--budget", "4000", "--quiet"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "l2_kb[2]" in out and "best seconds per workload" in out
    assert "ar" in out and "co" in out

    # Multi-axis grid with an explicit metric and adaptive policy.
    rc = main(["study", "l2_kb=256,512", "freq_ghz=2,3",
               "--workloads", "ar", "--scale", "tiny", "--budget", "4000",
               "--metric", "ipc", "--policy", "adaptive", "--quiet"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "l2_kb[2] x freq_ghz[2]" in out
    assert "tier" in out


def test_study_rejects_bad_axis(cache_dir, capsys):
    rc = main(["study", "warp_factor=9", "--quiet"])
    assert rc == 2
    assert "unknown axis" in capsys.readouterr().err


def test_removed_numpy_backend_is_rejected(cache_dir, capsys):
    # The numpy cycle backend was deleted; asking for it by flag is a
    # usage error, not a silent fallback.
    with pytest.raises(SystemExit) as exc:
        main(["run", "ar", "--scale", "tiny", "--budget", "4000",
              "--cycle-backend", "numpy"])
    assert exc.value.code == 2
    assert "invalid choice: 'numpy'" in capsys.readouterr().err
