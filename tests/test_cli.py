"""CLI tests (invoked in-process through repro.cli.main)."""

import argparse
import re

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import load_transform


class TestInfo:
    def test_lists_platforms_and_datasets(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for name in ("1x1", "1x4", "2x8", "8x8"):
            assert name in out
        for name in ("salina", "cancer", "lightfield"):
            assert name in out


class TestTune:
    def test_prints_tuning_table(self, capsys):
        assert main(["tune", "--dataset", "salina", "--n", "256",
                     "--eps", "0.1", "--platform", "1x4"]) == 0
        out = capsys.readouterr().out
        assert "L*" in out
        assert "alpha(L)" in out

    def test_memory_objective(self, capsys):
        assert main(["tune", "--dataset", "lightfield", "--n", "256",
                     "--objective", "memory"]) == 0
        assert "memory cost" in capsys.readouterr().out


class TestTransform:
    def test_fixed_size_saves_file(self, tmp_path, capsys):
        out_path = tmp_path / "t.npz"
        assert main(["transform", "--dataset", "salina", "--n", "256",
                     "--size", "48", "--eps", "0.1",
                     "--out", str(out_path)]) == 0
        assert out_path.exists()
        t = load_transform(out_path)
        assert t.l == 48 and t.n == 256
        assert "saved transform" in capsys.readouterr().out

    def test_from_npy_input(self, tmp_path, rng, capsys):
        data = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 60))
        npy = tmp_path / "data.npy"
        np.save(npy, data)
        out_path = tmp_path / "t.npz"
        assert main(["transform", "--input", str(npy), "--size", "20",
                     "--eps", "0.05", "--out", str(out_path)]) == 0
        t = load_transform(out_path)
        assert t.shape == (20, 60)

    def test_bad_input_shape(self, tmp_path, capsys):
        npy = tmp_path / "bad.npy"
        np.save(npy, np.ones(5))
        assert main(["transform", "--input", str(npy), "--size", "2",
                     "--out", str(tmp_path / "t.npz")]) == 1
        assert "error:" in capsys.readouterr().err


class TestPca:
    def test_serial(self, capsys):
        assert main(["pca", "--dataset", "salina", "--n", "192",
                     "--k", "3", "--eps", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Top-3 eigenvalues" in out
        assert "cumulative error" in out

    def test_distributed(self, capsys):
        assert main(["pca", "--dataset", "lightfield", "--n", "192",
                     "--k", "2", "--platform", "1x4"]) == 0
        assert "simulated runtime on 1x4" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_metrics_json_written(self, tmp_path, capsys):
        import json
        path = tmp_path / "report.json"
        assert main(["transform", "--dataset", "salina", "--n", "128",
                     "--size", "24", "--metrics-json", str(path),
                     "--out", str(tmp_path / "t.npz")]) == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.run_report/v1"
        assert doc["meta"]["command"] == "transform"
        assert doc["metrics"]["counters"]["omp.columns_encoded"] == 128
        assert "exd.transform" in doc["spans"]
        assert "gram_cache" in doc and "clocks" in doc

    def test_distributed_transform_populates_mpi_sections(self, tmp_path):
        import json
        path = tmp_path / "report.json"
        assert main(["transform", "--dataset", "salina", "--n", "128",
                     "--size", "24", "--platform", "1x4",
                     "--distributed", "--metrics-json", str(path),
                     "--out", str(tmp_path / "t.npz")]) == 0
        doc = json.loads(path.read_text())
        assert doc["clocks"]["runs"] >= 1
        assert doc["clocks"]["simulated_time"] > 0
        assert doc["traffic"]  # per-op MPI words present
        assert doc["metrics"]["counters"]["mpi.collective.words"] > 0

    def test_distributed_requires_size(self, capsys):
        assert main(["transform", "--dataset", "salina", "--n", "128",
                     "--distributed"]) == 1
        assert "--distributed requires" in capsys.readouterr().err

    def test_profile_prints_report(self, capsys):
        assert main(["tune", "--dataset", "salina", "--n", "192",
                     "--platform", "1x4", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "== run report ==" in out
        assert "tuner.tune" in out

    def test_observability_off_without_flags(self, tmp_path):
        from repro import observability
        assert main(["transform", "--dataset", "salina", "--n", "96",
                     "--size", "16", "--out",
                     str(tmp_path / "t.npz")]) == 0
        assert not observability.enabled()


class TestTransformKnobRegressions:
    """Satellite regressions: --block-width on the tuned path and
    falsy-vs-None handling of --memory-budget-mb."""

    def _store(self, tmp_path, n=300):
        assert main(["ingest", "--dataset", "salina", "--n", str(n),
                     "--store", str(tmp_path / "s.store"),
                     "--chunk-width", "128"]) == 0
        return str(tmp_path / "s.store")

    def test_block_width_reaches_tuned_path(self, tmp_path, monkeypatch):
        """--block-width without --size used to be parsed then silently
        dropped: ExtDict never saw it.  Capture the constructor kwargs
        and pin the plumbing."""
        import repro.cli as cli
        captured = {}
        real_extdict = cli.ExtDict

        class SpyExtDict(real_extdict):
            def __init__(self, **kwargs):
                captured.update(kwargs)
                super().__init__(**kwargs)

        monkeypatch.setattr(cli, "ExtDict", SpyExtDict)
        store = self._store(tmp_path)
        assert main(["transform", "--store", store,
                     "--block-width", "256", "--eps", "0.2",
                     "--out", str(tmp_path / "t.npz")]) == 0
        assert captured["block_width"] == 256

    def test_tuned_block_width_result_matches_default(self, tmp_path):
        """Plumbing the width through must not change the bits."""
        from repro.core import load_transform
        store = self._store(tmp_path)
        assert main(["transform", "--store", store, "--eps", "0.2",
                     "--out", str(tmp_path / "a.npz")]) == 0
        assert main(["transform", "--store", store, "--eps", "0.2",
                     "--block-width", "256",
                     "--out", str(tmp_path / "b.npz")]) == 0
        ta, tb = load_transform(tmp_path / "a.npz"), \
            load_transform(tmp_path / "b.npz")
        np.testing.assert_array_equal(ta.dictionary.atoms,
                                      tb.dictionary.atoms)
        np.testing.assert_array_equal(ta.coefficients.data,
                                      tb.coefficients.data)

    def test_zero_memory_budget_is_rejected(self, tmp_path, capsys):
        """--memory-budget-mb 0 used to be treated as *unset* (falsy)
        and silently ignored; it must be a hard error."""
        store = self._store(tmp_path)
        assert main(["transform", "--store", store, "--size", "24",
                     "--memory-budget-mb", "0",
                     "--out", str(tmp_path / "t.npz")]) == 1
        assert "must be positive" in capsys.readouterr().err

    def test_negative_memory_budget_is_rejected(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main(["transform", "--store", store, "--size", "24",
                     "--memory-budget-mb", "-5",
                     "--out", str(tmp_path / "t.npz")]) == 1
        assert "must be positive" in capsys.readouterr().err

    def test_block_width_requires_store(self, capsys):
        assert main(["transform", "--dataset", "salina", "--n", "128",
                     "--block-width", "256"]) == 1
        assert "require --store" in capsys.readouterr().err


class TestServeCommand:
    def test_transform_spec_parsing(self):
        from repro.cli import _parse_transform_spec
        assert _parse_transform_spec("t.npz") == ("default", "t.npz")
        assert _parse_transform_spec("acme=t.npz") == ("acme", "t.npz")
        # '=' inside a path is not a tenant separator
        assert _parse_transform_spec("/tmp/a=b/t.npz") \
            == ("default", "/tmp/a=b/t.npz")

    def test_knob_validation(self, capsys):
        assert main(["serve", "--max-batch", "0"]) == 1
        assert "--max-batch" in capsys.readouterr().err
        assert main(["serve", "--max-queue", "0"]) == 1
        assert "--max-queue" in capsys.readouterr().err
        assert main(["serve", "--max-wait-ms", "-1"]) == 1
        assert "--max-wait-ms" in capsys.readouterr().err

    def test_missing_transform_file_is_an_error(self, tmp_path, capsys):
        assert main(["serve", "--transform",
                     str(tmp_path / "absent.npz")]) == 1
        assert "error:" in capsys.readouterr().err


class TestMaintainCommand:
    def test_bad_refresh_cadence_is_an_error(self, capsys):
        assert main(["maintain", "--dataset", "salina", "--n", "256",
                     "--size", "16", "--steps", "2",
                     "--refresh-every", "0"]) == 1
        assert "refresh_every" in capsys.readouterr().err

    def test_negative_steps_is_an_error(self, capsys):
        assert main(["maintain", "--dataset", "salina", "--n", "256",
                     "--size", "16", "--steps", "-2"]) == 1
        captured = capsys.readouterr()
        assert "error: steps must be >= 0" in captured.err
        assert "fitted initial D" not in captured.out


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestMpiBackendAndStoreDistributed:
    def _store(self, tmp_path, n=300):
        assert main(["ingest", "--dataset", "salina", "--n", str(n),
                     "--store", str(tmp_path / "s.store"),
                     "--chunk-width", "128"]) == 0
        return str(tmp_path / "s.store")

    def test_mpi_backend_reported(self, tmp_path, capsys):
        """The backend ``auto`` picked for the run is printed."""
        assert main(["transform", "--dataset", "salina", "--n", "128",
                     "--size", "16", "--distributed",
                     "--platform", "1x4",
                     "--out", str(tmp_path / "t.npz")]) == 0
        out = capsys.readouterr().out
        assert re.search(r"\(mpi backend: (threads|processes)\)", out)

    def test_store_distributed_matches_streamed(self, tmp_path):
        """--distributed now composes with --store: the rank-sharded
        encode must be bit-identical to the serial streamed one."""
        store = self._store(tmp_path)
        assert main(["transform", "--store", store, "--size", "24",
                     "--eps", "0.2", "--distributed",
                     "--platform", "1x4",
                     "--out", str(tmp_path / "dist.npz")]) == 0
        assert main(["transform", "--store", store, "--size", "24",
                     "--eps", "0.2",
                     "--out", str(tmp_path / "serial.npz")]) == 0
        td = load_transform(tmp_path / "dist.npz")
        ts = load_transform(tmp_path / "serial.npz")
        np.testing.assert_array_equal(td.dictionary.atoms,
                                      ts.dictionary.atoms)
        np.testing.assert_array_equal(td.coefficients.data,
                                      ts.coefficients.data)
        np.testing.assert_array_equal(td.coefficients.indices,
                                      ts.coefficients.indices)
        np.testing.assert_array_equal(td.coefficients.indptr,
                                      ts.coefficients.indptr)

    def test_store_distributed_rejects_checkpoint(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main(["transform", "--store", store, "--size", "24",
                     "--distributed", "--checkpoint",
                     str(tmp_path / "ckpt"),
                     "--out", str(tmp_path / "t.npz")]) == 1
        assert "cannot be combined" in capsys.readouterr().err

    def test_no_command_takes_mpi_backend(self):
        """The SPMD backend is chosen from the host, never by a flag."""
        parser = build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction))
        for name, sub in commands.choices.items():
            options = {o for a in sub._actions for o in a.option_strings}
            assert "--mpi-backend" not in options, name
