import gc
import json
import os
import struct
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from datagen import make_bundled_dataset, write_dataset
from factorfit import cli
from factorfit.cli import main, srm_flop_estimate, srm_flops_per_subject_iteration
from factorfit.collectives import create_thread_communicators
from factorfit.data_io import load_matrix


@pytest.fixture(scope="module")
def bundled(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundled")
    return make_bundled_dataset(root / "data")


def run_main(args):
    return main([str(a) for a in args])


def assert_usage_error(args, capsys):
    """Exit 2 with one ``usage error:`` line on stderr; returns that line."""
    capsys.readouterr()
    assert run_main(args) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("usage error: ")
    return line


FLAG_RULES = [
    ("fit-srm", ["--k", 0]),
    ("fit-srm", ["--iters", 0]),
    ("fit-srm", ["--workers", 0]),
    ("bench", ["--k", 0]),
    ("fit-htfa", ["--k", 0]),
    ("fit-htfa", ["--outer", 0]),
    ("fit-htfa", ["--local-iters", -1]),
    ("fit-htfa", ["--local-iters", 0]),
    ("fit-htfa", ["--workers", 0]),
    ("fit-htfa", ["--width-lo", 2, "--width-hi", 1]),
    ("fit-htfa", ["--width-lo", 0]),
    ("fit-htfa", ["--voxel-frac", 0]),
    ("fit-htfa", ["--tr-frac", 1.5]),
    ("fit-htfa", ["--max-voxels", 0]),
    ("fit-htfa", ["--max-trs", 0]),
    ("gen-synth", ["--subjects", 0]),
    ("gen-synth", ["--partition", "0,1,1"]),
    ("gen-synth", ["--partition", "4,x,2"]),
]


class TestFlagRules:
    """Every flag rule is a usage error, checked before any file is read:
    the manifest named here does not exist."""

    @pytest.mark.parametrize(
        "command, flags", FLAG_RULES,
        ids=[" ".join(map(str, [c, *f])) for c, f in FLAG_RULES],
    )
    def test_rule_fails_before_any_file_is_read(self, command, flags, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        if command == "gen-synth":
            args = [command, "--seed-manifest", missing, "--subjects", 2, *flags]
        else:
            args = [command, "--manifest", missing, *flags]
        assert_usage_error([*args, "--out", tmp_path / "x"], capsys)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flags, text", [
        (["--outer", 0], "outer_iterations must be at least 1"),
        (["--local-iters", 0], "local_iterations must be at least 1"),
        (["--tr-frac", 1.5], "sampling fractions must lie in (0, 1]"),
    ])
    def test_usage_error_quotes_the_setting(self, flags, text, tmp_path, capsys):
        line = assert_usage_error(
            ["fit-htfa", "--manifest", tmp_path / "m.json", *flags, "--out", tmp_path / "x"],
            capsys,
        )
        assert line == f"usage error: {text}"


class TestFitSrmCommand:
    def test_defaults_produce_valid_artifacts(self, bundled, tmp_path):
        out = tmp_path / "out"
        rc = run_main(
            ["fit-srm", "--manifest", bundled, "--k", 3, "--iters", 4, "--out", out]
        )
        assert rc == 0
        S = load_matrix(out / "shared_response.sfab")
        sigma = load_matrix(out / "shared_covariance.sfab")
        rho2 = load_matrix(out / "noise_variance.sfab")
        assert S.shape == (3, 20) and sigma.shape == (3, 3)
        assert np.all(rho2 > 0)
        for i in range(4):
            W = load_matrix(out / "subjects" / f"sub-{i:02d}_mapping.sfab")
            assert np.max(np.abs(W.T @ W - np.eye(3))) <= 1e-8
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 1
        assert all(v >= 0 for v in report["timings"].values())
        assert np.isfinite(report["flops"])

    def test_report_carries_rank0_collectives(self, bundled, tmp_path):
        out = tmp_path / "out"
        rc = run_main(
            ["fit-srm", "--manifest", bundled, "--k", 3, "--iters", 4,
             "--backend", "threads", "--workers", 2, "--out", out]
        )
        assert rc == 0
        stats = json.loads((out / "report.json").read_text())["collectives"]
        # rank_offsets, one gather per iteration, the final noise gather;
        # a broadcast for rank_offsets and one per iteration; a barrier on
        # each side of the fit
        assert stats["gather_calls"] == 4 + 2
        assert stats["bcast_calls"] == 4 + 1
        assert stats["barrier_calls"] == 2
        assert stats["gather_bytes"] > 0 and stats["seconds"] >= 0.0

    def test_k_zero_usage_error(self, bundled, tmp_path, capsys):
        assert_usage_error(
            ["fit-srm", "--manifest", bundled, "--k", 0, "--out", tmp_path / "x"], capsys
        )

    def test_missing_manifest_runtime_error(self, tmp_path, capsys):
        rc = run_main(
            ["fit-srm", "--manifest", tmp_path / "nope.json", "--out", tmp_path / "x"]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "error" in err

    @pytest.mark.parametrize("text, error", [
        ("{not json", "FormatError"),
        ("[1, 2]", "FormatError"),
        ('{"subjects": {"id": "s0"}}', "FormatError"),
        ('{"subjects": [], "grid_dims": 5}', "FormatError"),
        ('{"subjects": [{"data_path": "s0.sfab"}]}', "DatasetConsistencyError"),
        ('{"subjects": [{"id": "s0"}]}', "DatasetConsistencyError"),
        ('{"subjects": [{"id": "s0", "data_path": 5}]}', "DatasetConsistencyError"),
        ('{"subjects": [{"id": ["s0"], "data_path": "s0.sfab"}]}', "DatasetConsistencyError"),
    ])
    def test_malformed_manifest_fails_by_name(self, text, error, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        rc = run_main(["fit-srm", "--manifest", manifest, "--out", tmp_path / "x"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["type"] == error
        assert str(manifest) in err["message"]

    def test_corrupt_header_fails_by_name_at_manifest_time(self, tmp_path, capsys, monkeypatch):
        manifest = make_bundled_dataset(tmp_path / "data")
        path = tmp_path / "data" / "sub-01.sfab"
        raw = bytearray(path.read_bytes())
        raw[12:20] = struct.pack("<Q", 2**40)  # claims 2**40 x 20 values
        path.write_bytes(bytes(raw))
        monkeypatch.setattr(cli, "load_subject", lambda *a, **k: pytest.fail("loaded data"))
        rc = run_main(["fit-srm", "--manifest", manifest, "--k", 3, "--out", tmp_path / "x"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["type"] == "FormatError"
        assert str(path) in err["message"] and "field=payload" in err["message"]
        assert not (tmp_path / "x").exists()


class TestFitHtfaCommand:
    def test_blob_recovery_through_cli(self, tmp_path):
        from datagen import blob_subjects, write_dataset

        matrices, grid, true_centers, _ = blob_subjects(seed=321)
        manifest = write_dataset(tmp_path / "data", matrices, grid)
        out = tmp_path / "out"
        rc = run_main(
            [
                "fit-htfa",
                "--manifest", manifest,
                "--k", 3,
                "--outer", 5,
                "--local-iters", 4,
                "--max-voxels", 250,
                "--max-trs", 20,
                "--seed", 13,
                "--out", out,
            ]
        )
        assert rc == 0
        template = json.loads((out / "template.json").read_text())
        got = np.array(template["centers"])
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist

        cost = cdist(got, true_centers)
        rows, cols = linear_sum_assignment(cost)
        assert np.all(cost[rows, cols] <= 1.0)
        conn = np.loadtxt(out / "subjects" / "sub-00_connectivity.csv", delimiter=",")
        assert conn.shape == (3, 3)
        assert np.allclose(np.diag(conn), 1.0)

    def test_missing_coords_is_data_error(self, tmp_path, capsys):
        from datagen import srm_subjects, write_dataset

        matrices, _ = srm_subjects(n_subjects=2, n_voxels=12, n_trs=8, seed=0)
        manifest = write_dataset(tmp_path / "d", matrices, grid=None)
        rc = run_main(
            ["fit-htfa", "--manifest", manifest, "--k", 2, "--out", tmp_path / "o"]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "DatasetConsistencyError"

    def test_inverted_width_bounds_usage_error(self, bundled, tmp_path, capsys):
        assert_usage_error(
            [
                "fit-htfa",
                "--manifest", bundled,
                "--width-lo", 2,
                "--width-hi", 1,
                "--out", tmp_path / "x",
            ],
            capsys,
        )


class TestGenSynthCommand:
    def test_generates_files_and_manifest(self, bundled, tmp_path, capsys):
        out = tmp_path / "synth"
        rc = run_main(
            [
                "gen-synth",
                "--seed-manifest", bundled,
                "--subjects", 4,
                "--partition", "4,4,2",
                "--seed", 3,
                "--out", out,
            ]
        )
        assert rc == 0
        listed = sorted(p.name for p in out.iterdir())
        assert listed == [
            "coords.sfab",
            "manifest.json",
            "synth-0001.sfab",
            "synth-0002.sfab",
            "synth-0003.sfab",
            "synth-0004.sfab",
        ]
        for i in range(1, 5):
            X = load_matrix(out / f"synth-{i:04d}.sfab")
            assert X.shape == (60, 20)

    def test_rerun_byte_identical(self, bundled, tmp_path):
        args = [
            "gen-synth",
            "--seed-manifest", bundled,
            "--subjects", 2,
            "--partition", "2,2,2",
            "--seed", 8,
        ]
        assert run_main(args + ["--out", tmp_path / "a"]) == 0
        assert run_main(args + ["--out", tmp_path / "b"]) == 0
        for name in ("synth-0001.sfab", "synth-0002.sfab", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_zero_subjects_usage_error(self, bundled, tmp_path, capsys):
        assert_usage_error(
            [
                "gen-synth",
                "--seed-manifest", bundled,
                "--subjects", 0,
                "--out", tmp_path / "x",
            ],
            capsys,
        )

    def test_bad_partition_usage_error(self, bundled, tmp_path, capsys):
        assert_usage_error(
            [
                "gen-synth",
                "--seed-manifest", bundled,
                "--subjects", 1,
                "--partition", "4,4",
                "--out", tmp_path / "x",
            ],
            capsys,
        )


class TestBenchCommand:
    def test_flop_estimate_formula(self):
        # independent evaluation of the per-subject-iteration expression
        v, t, k = 3000, 2201, 60
        expected_one = (
            2.0 * (2.0 * v * t * k)
            + 2.0 * v * k * k
            + (2.0 * v * k * k - (2.0 / 3.0) * k**3)
        )
        assert srm_flops_per_subject_iteration(v, t, k) == expected_one
        n_subjects, iters = 10, 10
        assert srm_flop_estimate([v] * n_subjects, t, k, iters) == (
            iters * n_subjects * expected_one
        )

    def test_raider_scale_report(self, bundled, tmp_path, capsys):
        rc = run_main(
            ["bench", "--manifest", bundled, "--k", 3, "--iters", 2, "--out", tmp_path / "b"]
        )
        assert rc == 0
        report = json.loads((tmp_path / "b" / "report.json").read_text())
        assert report["flops"] == srm_flop_estimate([60] * 4, 20, 3, 2)
        assert report["gflops_per_s"] >= 0.0
        assert len(report["objective"]) == 2

    def test_zero_iterations(self, bundled, tmp_path, capsys):
        rc = run_main(
            ["bench", "--manifest", bundled, "--k", 3, "--iters", 0, "--out", tmp_path / "b"]
        )
        assert rc == 0
        report = json.loads((tmp_path / "b" / "report.json").read_text())
        assert report["flops"] == 0.0
        assert report["timings"]["compute"] <= 0.05
        assert report["objective"] == []

    def test_deterministic_flops(self, bundled, tmp_path, capsys):
        for d in ("r1", "r2"):
            assert (
                run_main(
                    [
                        "bench",
                        "--manifest", bundled,
                        "--k", 4,
                        "--iters", 3,
                        "--out", tmp_path / d,
                    ]
                )
                == 0
            )
        a = json.loads((tmp_path / "r1" / "report.json").read_text())
        b = json.loads((tmp_path / "r2" / "report.json").read_text())
        assert a["flops"] == b["flops"]


class TestValidateCommand:
    def test_clean_build_passes(self, capsys):
        assert run_main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_corruption_hook_fails(self, monkeypatch, capsys):
        from factorfit import cli

        monkeypatch.setitem(cli._VALIDATION_CHECKS, "broken", lambda: (False, "forced"))
        assert run_main(["validate", "--only", "woodbury,broken"]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert "PASS" in out[0] and "FAIL" in out[1]

    def test_only_filter(self, capsys):
        assert run_main(["validate", "--only", "woodbury"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and "woodbury" in out[0]

    def test_unknown_check_usage_error(self):
        assert run_main(["validate", "--only", "nope"]) == 2


class TestBackendFlag:
    def test_threads_matches_serial(self, bundled, tmp_path):
        base = ["fit-srm", "--manifest", bundled, "--k", 3, "--iters", 3, "--seed", 1]
        assert run_main(base + ["--backend", "serial", "--out", tmp_path / "s"]) == 0
        assert (
            run_main(
                base
                + ["--backend", "threads", "--workers", 2, "--out", tmp_path / "t"]
            )
            == 0
        )
        for name in ("shared_response.sfab", "shared_covariance.sfab"):
            assert (tmp_path / "s" / name).read_bytes() == (
                tmp_path / "t" / name
            ).read_bytes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_thread_ranks_leave_no_descriptor_open(self, bundled, tmp_path):
        """Every socket pair a thread group opens is closed again: by the
        CLI after its ranks return (not left to the garbage collector), and
        by ``close()``."""
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        before = open_fds()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert run_main(["fit-srm", "--manifest", bundled, "--k", 2, "--iters", 2,
                             "--backend", "threads", "--workers", 4, "--out", tmp_path]) == 0
            gc.collect()
        assert open_fds() == before
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        comms = create_thread_communicators(4)
        assert open_fds() == before + 2 * 3
        for comm in comms:
            comm.close()
        assert open_fds() == before

    def test_too_many_workers_usage_error(self, bundled, tmp_path):
        rc = run_main(
            [
                "fit-srm",
                "--manifest", bundled,
                "--k", 2,
                "--backend", "threads",
                "--workers", 9,
                "--out", tmp_path / "x",
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("backend", [["threads"], ["sockets", "--spawn-local"]])
    def test_more_ranks_than_subjects_usage_error(self, backend, bundled, tmp_path,
                                                  capsys, monkeypatch):
        """One size check for every backend, before any rank process starts."""
        monkeypatch.setattr(cli.subprocess, "Popen", None)
        line = assert_usage_error(
            ["fit-srm", "--manifest", bundled, "--k", 2, "--backend", *backend,
             "--workers", 5, "--out", tmp_path / "x"],
            capsys,
        )
        assert line == "usage error: 5 ranks for 4 subjects; every rank needs one"

    def test_threads_failure_names_the_subject(self, tmp_path, capsys):
        """A rank's own error is reported, not the peer's abandoned collective."""
        rng = np.random.default_rng(30)
        matrices = [rng.standard_normal((30, 20)) for _ in range(4)]
        # constant over time, on rank 1 of 2
        matrices[3] = np.repeat(rng.standard_normal((30, 1)), 20, axis=1)
        manifest = write_dataset(tmp_path / "data", matrices)
        capsys.readouterr()
        t0 = time.perf_counter()
        rc = run_main(
            ["fit-srm", "--manifest", manifest, "--k", 2, "--iters", 2,
             "--backend", "threads", "--workers", 2, "--out", tmp_path / "out"]
        )
        assert rc == 1
        assert time.perf_counter() - t0 < 30.0  # the transport timeout is 60 s
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "InvalidInputError"
        assert "subject sub-03 is constant over time" in error["message"]

    def test_sockets_without_env_usage_error(self, bundled, tmp_path, capsys, monkeypatch):
        for name in ("FACTORFIT_RANK", "FACTORFIT_SIZE", "FACTORFIT_COORD"):
            monkeypatch.delenv(name, raising=False)
        line = assert_usage_error(
            [
                "fit-srm",
                "--manifest", bundled,
                "--k", 2,
                "--backend", "sockets",
                "--out", tmp_path / "x",
            ],
            capsys,
        )
        assert "FACTORFIT_RANK" in line and "--spawn-local" in line

    def test_sockets_spawn_local_matches_serial(self, bundled, tmp_path, cli_env):
        serial_out = tmp_path / "serial"
        assert (
            run_main(
                [
                    "fit-srm",
                    "--manifest", bundled,
                    "--k", 3,
                    "--iters", 3,
                    "--seed", 1,
                    "--out", serial_out,
                ]
            )
            == 0
        )
        sockets_out = tmp_path / "sockets"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "factorfit",
                "fit-srm",
                "--manifest", str(bundled),
                "--k", "3",
                "--iters", "3",
                "--seed", "1",
                "--backend", "sockets",
                "--workers", "2",
                "--spawn-local",
                "--out", str(sockets_out),
            ],
            env=cli_env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (serial_out / "shared_response.sfab").read_bytes() == (
            sockets_out / "shared_response.sfab"
        ).read_bytes()


class TestSpawnLocal:
    """``--spawn-local`` ends the run as soon as one rank fails."""

    @pytest.fixture
    def spawned(self, monkeypatch, cli_env):
        """Record every rank process; ``replace`` swaps a rank's command."""
        from factorfit import cli

        procs, replace = [], {}
        popen = subprocess.Popen

        def recording(cmd, env=None, **kwargs):
            proc = popen(replace.get(env.get("FACTORFIT_RANK"), cmd), env=env, **kwargs)
            procs.append(proc)
            return proc

        monkeypatch.setattr(cli.subprocess, "Popen", recording)
        monkeypatch.setenv("PYTHONPATH", cli_env["PYTHONPATH"])
        return procs, replace

    def fit_two_ranks(self, manifest, out):
        t0 = time.perf_counter()
        rc = run_main(
            ["fit-srm", "--manifest", manifest, "--k", 3, "--iters", 3,
             "--backend", "sockets", "--workers", 2, "--spawn-local", "--out", out]
        )
        return rc, time.perf_counter() - t0

    def test_non_finite_subject_on_rank1_fails_fast(self, spawned, tmp_path):
        from datagen import make_bundled_dataset, write_dataset
        from factorfit.data_io import HEADER_SIZE, load_manifest

        procs, _ = spawned
        manifest = make_bundled_dataset(tmp_path / "data")
        # subjects 2 and 3 belong to rank 1 of 2
        path = load_manifest(manifest).subjects[3].data_path
        raw = bytearray(path.read_bytes())
        raw[HEADER_SIZE:HEADER_SIZE + 8] = np.array([np.nan]).tobytes()
        path.write_bytes(bytes(raw))
        rc, elapsed = self.fit_two_ranks(manifest, tmp_path / "out")
        assert rc == 1
        assert elapsed < 30.0  # the transport timeout is 60 s
        assert len(procs) == 2 and all(p.poll() is not None for p in procs)

    def test_rank_lost_before_connecting_stops_the_others(self, spawned, bundled,
                                                           tmp_path):
        # rank 0 would wait for rank 1's connection until the 60 s timeout
        procs, replace = spawned
        replace["1"] = [sys.executable, "-c", "raise SystemExit(1)"]
        rc, elapsed = self.fit_two_ranks(bundled, tmp_path / "out")
        assert rc == 1
        assert elapsed < 30.0
        assert len(procs) == 2 and all(p.poll() is not None for p in procs)
