"""Benchmark of factorfit's fitters on seeded, generated inputs.

Run from the repository root:

    python3 perfbench/run.py --workload srm-raider --seed 1 --seconds 25 --trace 0

Workloads and metrics are defined in BENCHMARK.json and explained in
perfbench/README.md. With ``--trace 0`` the run reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report and the environment.
"""

import argparse
import dataclasses
import json
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 3
MIN_SAMPLES = 3
SRM_CORR_GATE = 0.95        # smallest canonical correlation, fitted vs true S
CENTER_MEDIAN_GATE = 1.5    # voxels; see README
LOST_FACTOR_VOX = 3.0       # a matched center this far off counts as lost


def _median(values):
    return float(statistics.median(values))


def _stats(comm):
    return dataclasses.asdict(comm.stats)


def _stats_delta(before, after):
    return {key: after[key] - before[key] for key in after}


@contextmanager
def _peak_alloc(out):
    """Store in ``out`` the peak traced bytes above the level at entry."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        yield
        out.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()


@contextmanager
def _tracing(tracer, comm):
    """With a tracer, wrap the layers and ``comm`` and open the solve's root span."""
    if tracer is None:
        yield
        return
    tracer.install(comm)
    try:
        with tracer.span("bench.solve"):
            yield
    finally:
        tracer.restore()


class Sample:
    """One solve: timings, collective statistics per rank, gate failures."""

    def __init__(self, solve_s, fit_s, stats_r0, stats_r1=None, flops=0.0):
        self.solve_s = solve_s
        self.fit_s = fit_s
        self.stats = {"r0": stats_r0, "r1": stats_r1 or {key: 0 for key in stats_r0}}
        self.flops = flops
        self.failures = []
        self.quality = {}


class Workload:
    """Seeded inputs on disk, one solve at a time, optionally traced."""

    name = ""

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work = Path(work_dir)
        self.data_dir = self.work / "data"
        self.out_dir = self.work / "out"
        self.subject_bytes = 0

    def setup(self):
        raise NotImplementedError

    def close(self):
        pass

    def solve(self, tracer=None, around_fit=nullcontext):
        raise NotImplementedError

    def extra_metrics(self, samples):
        return {}

    def _serial_solve(self, solve_fn, tracer, around_fit, *args):
        comm = collectives.SerialCommunicator()
        with _tracing(tracer, comm):
            t0 = time.perf_counter()
            result, fit_s = solve_fn(comm, *args, around_fit=around_fit)
            solve_s = time.perf_counter() - t0
        return result, Sample(solve_s, fit_s, _stats(comm))


class SrmRaider(Workload):
    name = "srm-raider"
    N, V, T, K, ITERS, NOISE = 6, 3000, 2201, 60, 10, 0.2

    def _write_inputs(self):
        manifest, self.shared, self.subject_bytes = gen.write_srm_dataset(
            self.data_dir, self.seed, self.N, self.V, self.T, self.K, self.NOISE
        )
        self.entries = data_io.load_manifest(manifest, model="srm").subjects
        self.flops = cli.srm_flop_estimate([self.V] * self.N, self.T, self.K, self.ITERS)
        return manifest

    def setup(self):
        self._write_inputs()
        # warm-up: page in the files and run one EM iteration
        fits.solve_srm(
            collectives.SerialCommunicator(), self.entries,
            srm.SrmConfig(k=self.K, iterations=1), self.out_dir,
        )

    def solve(self, tracer=None, around_fit=nullcontext):
        config = srm.SrmConfig(k=self.K, iterations=self.ITERS)
        model, sample = self._serial_solve(
            fits.solve_srm, tracer, around_fit, self.entries, config, self.out_dir
        )
        sample.flops = self.flops
        sample.failures += fits.srm_local_gates(model)
        self._check_shared_response(sample, model.S)
        return sample

    def _check_shared_response(self, sample, S):
        corr = fits.canonical_corr_min(S, self.shared)
        sample.quality["shared_response_corr_min"] = corr
        if not corr >= SRM_CORR_GATE:
            sample.failures.append(f"shared response correlation {corr:.4f} < {SRM_CORR_GATE}")

    def extra_metrics(self, samples):
        fit_s = _median([s.fit_s for s in samples])
        return {
            "gflop_per_s": (self.flops / fit_s / 1e9, "Gflop/s"),
            "shared_response_corr_min": (
                min(s.quality["shared_response_corr_min"] for s in samples), "1"
            ),
        }


class SrmFanin(SrmRaider):
    """SRM over sockets: rank 0 is this process, rank 1 a child process."""

    name = "srm-fanin"
    N, V, T, K, ITERS, NOISE = 384, 64, 800, 32, 8, 0.2
    QUIT, SOLVE = 0, 1

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.peer = None
        self.comm = None
        self.baseline = None
        self.baseline_fit_s = []
        self.solves = 0

    def setup(self):
        manifest = self._write_inputs()
        self.split = len(self.entries) // 2
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        coord = f"127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        self.peer = subprocess.Popen(
            [
                sys.executable, str(HERE / "peer.py"), "--manifest", str(manifest),
                "--first", str(self.split), "--coord", coord, "--k", str(self.K),
                "--out", str(self.out_dir),
            ],
            stdout=subprocess.DEVNULL,
        )
        self.comm = collectives.SocketCommunicator(0, 2, coord, timeout=60.0)
        # warm-up: one two-rank EM iteration, and the serial baseline's inputs
        self._two_rank(1)
        self.baseline_subjects = [
            data_io.load_subject(e.data_path, None, e.subject_id) for e in self.entries
        ]

    def close(self):
        """Stop rank 1 and wait until it has ended."""
        if self.peer is None:
            return
        try:
            if self.comm is not None:
                self.comm.broadcast(np.array([[self.QUIT, 0]], dtype=np.float64))
                self.comm.close()
                self.peer.wait(timeout=30)
        except (FactorFitError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.peer.poll() is None:
                self.peer.kill()
                self.peer.wait()
            self.peer = self.comm = None

    def _two_rank(self, iterations, tracer=None, around_fit=nullcontext):
        comm = self.comm
        comm.broadcast(np.array([[self.SOLVE, iterations]], dtype=np.float64))
        config = srm.SrmConfig(k=self.K, iterations=iterations)
        before = _stats(comm)
        with _tracing(tracer, comm):
            t0 = time.perf_counter()
            model, fit_s = fits.solve_srm(
                comm, self.entries[: self.split], config, self.out_dir,
                around_fit=around_fit,
            )
            solve_s = time.perf_counter() - t0
        stats_r0 = _stats_delta(before, _stats(comm))
        report = json.loads(comm.gather(b"")[1])
        sample = Sample(solve_s, fit_s, stats_r0, report["stats"], self.flops)
        sample.failures += fits.srm_local_gates(model) + report["failures"]
        return model, report, sample

    def _serial_baseline(self):
        config = srm.SrmConfig(k=self.K, iterations=self.ITERS)
        t0 = time.perf_counter()
        model = srm.fit(self.baseline_subjects, config, collectives.SerialCommunicator())
        self.baseline_fit_s.append(time.perf_counter() - t0)
        if self.baseline is None:
            self.baseline = model
        elif not _same_srm(model, self.baseline.W, self.baseline):
            raise RuntimeError("serial baseline is not reproducible")

    def solve(self, tracer=None, around_fit=nullcontext):
        model, report, sample = self._two_rank(self.ITERS, tracer, around_fit)
        # A serial fit follows every other timed solve, which leaves more
        # two-rank samples per run; the first one is the byte-level reference.
        self.solves += 1
        if self.baseline is None or (
            tracer is None and around_fit is nullcontext and self.solves % 2 == 1
        ):
            self._serial_baseline()
        base = self.baseline
        if not _same_srm(model, base.W[: self.split], base):
            sample.failures.append("rank-0 results differ from the serial baseline")
        if report["digest"] != fits.mapping_digest(base.W[self.split:]):
            sample.failures.append("rank-1 mappings differ from the serial baseline")
        self._check_shared_response(sample, model.S)
        return sample

    def extra_metrics(self, samples):
        out = super().extra_metrics(samples)
        serial = _median(self.baseline_fit_s)
        out["serial_fit_s"] = (serial, "s")
        out["scaling_eff"] = (serial / (2.0 * _median([s.fit_s for s in samples])), "1")
        return out


def _same_srm(model, Ws, base):
    """Byte equality of S, Sigma_s, rho^2 and the given mappings."""
    return (
        model.S.tobytes() == base.S.tobytes()
        and model.sigma_s.tobytes() == base.sigma_s.tobytes()
        and model.rho2_all.tobytes() == base.rho2_all.tobytes()
        and len(model.W) == len(Ws)
        and all(a.tobytes() == b.tobytes() for a, b in zip(model.W, Ws))
    )


class HtfaBlobs(Workload):
    name = "htfa-blobs"
    N, DIMS, K, T = 2, (20, 20, 12), 8, 150

    def setup(self):
        manifest, self.centers, self.widths, self.subject_bytes = gen.write_htfa_dataset(
            self.data_dir, self.seed, self.N, self.DIMS, self.K, self.T,
            width_range=(10.0, 20.0), jitter=0.3, noise=0.05,
            min_separation=6.5, margin=2.0,
        )
        self.entries = data_io.load_manifest(manifest, model="htfa").subjects
        self.grid = kernels.VoxelGrid.from_positions(
            data_io.load_matrix(self.entries[0].coords_path)
        )
        # warm-up: one outer and one local iteration
        fits.solve_htfa(
            collectives.SerialCommunicator(), self.entries,
            self.config(outer=1, local=1), self.plan(), self.out_dir,
        )

    def config(self, outer=3, local=3):
        # Each TRF solve stops after at most 5 iterations, so the fit does a
        # fixed budget of work whatever the seed; see README.
        return htfa.HtfaConfig(
            k=self.K, outer_iterations=outer, local_iterations=local,
            nlls=trf.TrfConfig(max_iterations=5),
        )

    @staticmethod
    def plan():
        return htfa.SubsamplePlan(max_voxels=800, max_trs=40)

    def solve(self, tracer=None, around_fit=nullcontext):
        config = self.config()
        (template, locals_), sample = self._serial_solve(
            fits.solve_htfa, tracer, around_fit, self.entries, config, self.plan(),
            self.out_dir,
        )
        sample.failures += fits.htfa_bound_gates(template, locals_, self.grid, config)
        errors = fits.matched_center_errors(template.centers, self.centers)
        median, lost = float(np.median(errors)), int(np.sum(errors > LOST_FACTOR_VOX))
        sample.quality.update(
            center_err_median_vox=median,
            center_err_max_vox=float(errors.max()),
            factors_lost=lost,
        )
        if not median <= CENTER_MEDIAN_GATE:
            sample.failures.append(f"median center error {median:.3f} > {CENTER_MEDIAN_GATE} voxels")
        return sample

    def extra_metrics(self, samples):
        q = samples[-1].quality
        return {
            "center_err_median_vox": (q["center_err_median_vox"], "voxel"),
            "center_err_max_vox": (q["center_err_max_vox"], "voxel"),
            "factors_lost": (q["factors_lost"], "count"),
        }


WORKLOADS = {cls.name: cls for cls in (SrmRaider, SrmFanin, HtfaBlobs)}


def layer_metrics(tracer, sample):
    """Every per-layer value one traced solve gives, by metric name."""
    self_s = tracer.self_times()
    counts = tracer.counts
    values = {}
    for name in spans.SPAN_NAMES:
        values[f"{name}.s"] = values[f"{name}.self_s"] = self_s.get(name, 0.0)
        values[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
    for name in ("data_io.load", "data_io.save"):
        values[f"{name}.bytes"] = counts.get(f"{name}.bytes", 0)
    nfev = counts.get("htfa.residual.calls", 0)
    values["trf.iterations"] = counts.get("trf.iterations", 0)
    values["trf.nfev"] = nfev
    values["trf.njev"] = counts.get("htfa.jacobian.calls", 0)
    values["trf.accept_ratio"] = counts.get("trf.accepted", 0) / nfev if nfev else 0.0
    for reason in ("cost", "step", "gradient", "max_iterations"):
        values[f"trf.term.{reason}"] = counts.get(f"trf.term.{reason}", 0)
    values["srm.model_flops"] = sample.flops
    for rank, stats in sample.stats.items():
        for field in ("gather_bytes", "gather_calls", "bcast_bytes", "bcast_calls", "barrier_calls"):
            values[f"collectives.{rank}.{field}"] = stats[field]
        values[f"collectives.{rank}.wait_s"] = stats["seconds"]
    return values


def exact_counts(tracer, sample):
    """Counts that must repeat exactly between two traced solves of one input."""
    out = dict(tracer.counts)
    for rank, stats in sample.stats.items():
        out.update({f"{rank}.{k}": v for k, v in stats.items() if k != "seconds"})
    return out


def run_untraced(workload, seconds):
    setup_s = []
    for _ in range(SETUP_REPEATS):
        workload.close()
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
    # Start another solve while it is expected to end within ``seconds``.
    samples, durations = [], []
    t0 = time.perf_counter()
    while len(samples) < MIN_SAMPLES or (
        time.perf_counter() - t0 + _median(durations) <= seconds
    ):
        start = time.perf_counter()
        samples.append(workload.solve())
        durations.append(time.perf_counter() - start)
    peak = []
    samples.append(workload.solve(around_fit=lambda: _peak_alloc(peak)))
    timed = samples[:-1]
    metrics = {
        "solve_s": _median([s.solve_s for s in timed]),
        "fit_s": _median([s.fit_s for s in timed]),
        "setup_s": _median(setup_s),
        "peak_alloc_mb": peak[0] / 1e6,
    }
    info = workload.extra_metrics(timed)
    info["samples"] = (len(timed), "count")
    info["setup_samples"] = (len(setup_s), "count")
    return samples, metrics, info


def run_traced(workload):
    workload.setup()
    untraced = workload.solve()
    traced = []
    for _ in range(2):
        tracer = spans.Tracer()
        sample = workload.solve(tracer=tracer)
        traced.append((tracer, sample))
    samples = [untraced] + [s for _, s in traced]
    first, second = (exact_counts(t, s) for t, s in traced)
    if first != second:
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        samples[-1].failures.append(f"traced counts differ between runs: {diff}")
    per_run = [layer_metrics(t, s) for t, s in traced]
    metrics = {}
    for name in per_run[0]:
        metrics[name] = _median([values[name] for values in per_run])
    metrics["bench.trace_overhead_s"] = (
        _median([s.fit_s for _, s in traced]) - untraced.fit_s
    )
    return samples, metrics, {}


def llc_bytes():
    """Size of the last-level cache of CPU 0, from sysfs; 0 when unknown."""
    best_level, best_size = -1, 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
            scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
            size = int(text.rstrip("KM")) * scale
        except (OSError, ValueError):
            continue
        if level > best_level:
            best_level, best_size = level, size
    return best_size


def environment(workload):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "llc_bytes": llc_bytes(),
        "working_set_bytes": workload.subject_bytes,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "rank1": "child process over a loopback socket" if workload.name == "srm-fanin" else "none",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="factorfit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work)
    samples, metrics, info, error = [], {}, {}, None
    try:
        if args.trace:
            samples, metrics, info = run_traced(workload)
        else:
            samples, metrics, info = run_untraced(workload, args.seconds)
    except Exception:  # noqa: BLE001 - reported as a failed run below
        error = traceback.format_exc()
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for s in samples for f in s.failures]
    attempted = len(samples) + (error is not None)
    failed = sum(1 for s in samples if s.failures) + (error is not None)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(environment(workload), sort_keys=True))
    out = {}
    if error is None:
        for m in wanted:
            value = metrics[m["name"]]
            out[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<34} {value:>16.6g} {m['unit']}")
        for name, (value, unit) in info.items():
            print(f"  {name:<34} {value:>16.6g} {unit}")
    print(f"  {'failed_fraction':<34} {failed / max(attempted, 1):>16.6g} 1")
    for failure in failures:
        print(f"gate failed: {failure}")
    if error is not None:
        print(error, file=sys.stderr)
    print(json.dumps({
        "correct": error is None and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "factorfit" / "__init__.py").is_file():
        print(f"perfbench: no factorfit sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    # One BLAS thread per rank, fixed before numpy loads; rank 1 inherits it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np
    import scipy

    import fits
    import gen
    import spans
    from factorfit import cli, collectives, data_io, htfa, kernels, srm, trf
    from factorfit.errors import FactorFitError

    sys.exit(main())
