"""Tests for the artifact-style CLI."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.core.compiled_backend import clear_compiled_caches


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Xeon Phi 7210" in out
        assert "4.51 TFLOPS" in out

    def test_accuracy_vgg_only(self, capsys):
        assert main(["accuracy", "--net", "VGG"]) == 0
        out = capsys.readouterr().out
        assert "F(6x6,3x3)" in out
        assert "direct" in out
        assert "C3D" not in out

    @pytest.mark.slow
    def test_gemm(self, capsys):
        assert main(["gemm"]) == 0
        out = capsys.readouterr().out
        assert "128x128" in out
        assert "vs_MKL" in out

    def test_tune_with_wisdom(self, capsys, tmp_path):
        wisdom = tmp_path / "w.json"
        args = [
            "tune", "--network", "VGG", "--layer", "5.2",
            "--fmr", "F(2x2,3x3)", "--wisdom", str(wisdom),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "chosen blocking" in first
        assert wisdom.exists()
        # Second run is served from the wisdom file.
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "candidates tried : 0" in second

    def test_tune_unknown_layer(self, capsys):
        assert main(["tune", "--network", "VGG", "--layer", "9.9",
                     "--fmr", "F(2x2,3x3)"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bench_unknown_network(self, capsys):
        assert main(["bench", "--network", "Nope"]) == 2

    @pytest.mark.slow
    def test_bench_one_network(self, capsys, tmp_path):
        out_csv = tmp_path / "measurements.csv"
        assert main(["bench", "--network", "C3D", "-o", str(out_csv)]) == 0
        text = out_csv.read_text()
        assert "C3D-C2a" in text
        assert "cuDNN FFT" in text

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliServe:
    """``serve`` is the TCP front-end: address validation and a real
    round-trip through a subprocess."""

    def test_serve_requires_listen(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "address", ["nonsense", "127.0.0.1:70000", "127.0.0.1:-1"]
    )
    def test_serve_listen_rejects_bad_address(self, capsys, address):
        assert main(["serve", "--listen", address]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    @pytest.mark.slow
    def test_serve_listen_roundtrip_subprocess(self):
        """Boot the real TCP front-end on an ephemeral port, register a
        model and run one inference through it, then SIGINT it down."""
        import asyncio
        import os
        import re
        import signal
        import subprocess
        import sys as _sys

        import numpy as np

        from repro.serve import ServeClient, tensor_digest

        env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro.cli", "serve",
             "--listen", "127.0.0.1:0"],
            cwd=Path(__file__).resolve().parents[1], env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            m = re.match(r"serving on 127\.0\.0\.1:(\d+) ", line)
            assert m, f"unexpected banner: {line!r}"
            port = int(m.group(1))

            rng = np.random.default_rng(7)
            ker = (rng.standard_normal((8, 8, 3, 3)) * 0.2).astype(np.float32)
            img = rng.standard_normal((2, 8, 8, 8)).astype(np.float32)

            async def roundtrip():
                async with ServeClient("127.0.0.1", port) as cli:
                    await cli.register("m", ker, [1, 1])
                    return await cli.infer("m", img)

            rep = asyncio.run(roundtrip())
            assert rep["digest"] == tensor_digest(rep["output"])
            assert rep["output"].shape == (2, 8, 8, 8)

            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=20)
            assert proc.returncode == 0, err
            assert "shutting down" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


class TestCliRun:
    RUN_ARGS = [
        "run", "--network", "VGG", "--layer", "3.2", "--batch", "1",
        "--channels-divisor", "16", "--image-divisor", "4",
    ]

    @pytest.mark.parametrize("backend", ["fused", "compiled"])
    def test_run_all_backends_check_against_oracle(self, capsys, backend):
        assert main(self.RUN_ARGS + ["--backend", backend, "--check"]) == 0
        out = capsys.readouterr().out
        assert f"backend  : {backend}" in out
        assert "max |err| vs direct reference" in out

    def test_run_rejects_unknown_backend(self):
        # "blocked" names the Table-1 executor, which is library-only.
        for backend in ("nope", "blocked"):
            with pytest.raises(SystemExit) as exc:
                main(self.RUN_ARGS + ["--backend", backend])
            assert exc.value.code == 2

    def test_run_always_emits_stats_block(self, capsys):
        assert main(self.RUN_ARGS + ["--backend", "fused"]) == 0
        out = capsys.readouterr().out
        assert "--- stats ---" in out
        assert "fallbacks: 0" in out
        for stage in ("fused.stage1", "fused.stage2", "fused.stage3"):
            assert stage in out

    def test_run_under_fault_reports_one_fallback(self, capsys, monkeypatch):
        """A masked toolchain (``CC=/bin/false``) reroutes a compiled run
        to fused, and the stats block names the edge and its cause."""
        monkeypatch.setenv("CC", "/bin/false")
        clear_compiled_caches()
        try:
            assert main(self.RUN_ARGS + ["--backend", "compiled", "--check"]) == 0
        finally:
            clear_compiled_caches()
        out = capsys.readouterr().out
        assert "max |err| vs direct reference" in out  # oracle still passes
        assert "fallbacks: 1 (compiled->fused on CompilerUnavailableError)" in out
        # Per-stage timings for every stage that actually executed.
        for stage in ("fused.stage1", "fused.stage2", "fused.stage3"):
            assert stage in out

    def test_run_trace_json_and_metrics_snapshot(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.json"
        assert main(self.RUN_ARGS + [
            "--backend", "fused", "--stats", "--trace-json", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        snap = json.loads(out.split("--- metrics ---", 1)[1])
        assert snap["counters"]["engine.requests.fused"] == 1
        doc = json.loads(trace.read_text())
        assert doc["version"] == 1
        by_name = {s["name"]: s for s in doc["spans"]}
        request = by_name["request"]
        assert request["attrs"]["backend"] == "fused"
        stage2 = by_name["fused.stage2"]
        assert stage2["parent"] == by_name["execute.fused"]["id"]

    def test_run_unknown_layer(self, capsys):
        assert main(["run", "--network", "VGG", "--layer", "9.9"]) == 2
        assert "error" in capsys.readouterr().err


class TestCliSelect:
    @pytest.mark.slow
    def test_select_ranking(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main([
            "select", "--network", "VGG", "--layer", "5.2",
            "--mode", "train", "--top", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "tile-size ranking" in out
        assert "pad_waste" in out

    def test_select_unknown_layer(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["select", "--network", "VGG", "--layer", "zzz"]) == 2


class TestCliRunGraph:
    def test_run_graph_check_fused(self, capsys):
        assert main(["run-graph", "--network", "vgg", "--check"]) == 0
        out = capsys.readouterr().out
        assert "graph    : VGG-s" in out
        assert "interlayer_copies=0" in out
        assert "bitwise-vs-naive=True" in out
        assert "max |err| vs oracle" in out

    def test_run_graph_auto_prints_plan_table(self, capsys):
        assert main(["run-graph", "--network", "bottleneck",
                     "--algorithm", "auto", "--check"]) == 0
        out = capsys.readouterr().out
        # Plan table has one row per conv with a resolved algorithm.
        for conv in ("c1", "c2", "c3"):
            assert conv in out
        assert "probed" in out or "predicted" in out or "remembered" in out

    def test_run_graph_no_fuse(self, capsys):
        assert main(["run-graph", "--network", "residual",
                     "--no-fuse", "--check"]) == 0
        out = capsys.readouterr().out
        assert "fused_epilogues=0" in out
        assert "0 folded" in out

    def test_run_graph_compiled_backend(self, capsys):
        assert main(["run-graph", "--network", "classifier", "--backend",
                     "compiled", "--check"]) == 0
        out = capsys.readouterr().out
        assert "bitwise-vs-naive=True" in out

    def test_run_graph_rejects_unknown_network(self):
        with pytest.raises(SystemExit):
            main(["run-graph", "--network", "nope"])
