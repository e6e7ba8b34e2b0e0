"""Command-line frontend for batch fits, data generation, and validation.

Subcommands
-----------
fit-srm    fit the shared response model and write per-subject mappings,
           the shared response/covariance, noise variances, and a run
           report
fit-htfa   fit the topographic model and write the global template,
           per-subject factors/weights, and connectivity matrices
gen-synth  permutation-based synthetic subjects from a seed dataset
bench      timed fit phases plus an analytic flop estimate (Gflop/s
           excludes I/O; phases are separated by barriers)
validate   run the oracle-equivalence suite and print a pass/fail table

Exit codes: 0 success, 1 runtime/data error (with a machine-readable
JSON error object on stderr), 2 usage error. Multi-worker runs use the
``threads`` backend in-process, or the ``sockets`` backend across
processes carrying ``FACTORFIT_RANK`` / ``FACTORFIT_SIZE`` /
``FACTORFIT_COORD``; ``--spawn-local N`` forks N local ranks for
testing.
"""

import argparse
import dataclasses
import json
import os
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import htfa, reference, srm, trf
from .collectives import (
    ENV_COORD,
    ENV_RANK,
    ENV_SIZE,
    SocketCommunicator,
    create_thread_communicators,
)
from .data_io import (
    SubjectData,
    SynthSpec,
    generate_synthetic,
    load_manifest,
    load_subject,
    read_header,
    save_matrix,
)
from .errors import ConfigError, FactorFitError, InvalidInputError, UsageError
from .kernels import (
    VoxelGrid,
    polar_orthogonal,
    rbf_factor_matrix,
    rbf_factor_matrix_direct,
)

REPORT_SCHEMA = 1


def srm_flops_per_subject_iteration(n_voxels, n_trs, k):
    """Analytic flop count of one subject-iteration of the SRM fit.

    Two V x T x K products, then ``kernels.polar_orthogonal``'s QR route:
    a QR (2 V K^2 - (2/3) K^3) and Q applied to [U_R V_R^T; 0]. The apply
    step is the one counted V x K x K product (2 V K^2), as Q is one
    compact-WY block and only the top K rows of [U_R V_R^T; 0] are
    nonzero, but forming that block's K x K T adds about V K^2 to the QR
    that the model does not count. The model counts that route at every
    shape, though below 8 K rows the kernel runs gesdd instead, so a
    Gflop/s figure there (``srm-fanin``'s, say) is against the model, not
    the flops executed.
    """
    v, t = float(n_voxels), float(n_trs)
    k = float(k)
    return 2.0 * (2.0 * v * t * k) + 2.0 * v * k * k + (2.0 * v * k * k - (2.0 / 3.0) * k**3)


def srm_flop_estimate(voxel_counts, n_trs, k, iterations):
    total = 0.0
    for v in voxel_counts:
        total += srm_flops_per_subject_iteration(v, n_trs, k)
    return float(iterations) * total


def _chunk(n_items, workers, rank):
    base, extra = divmod(n_items, workers)
    start = rank * base + min(rank, extra)
    return start, start + base + (1 if rank < extra else 0)


def _make_report(command, backend, workers, timings, objective, flops, outputs, stats):
    timings = {k: max(float(v), 0.0) for k, v in timings.items()}
    compute = timings.get("compute", 0.0)
    gflops = flops / compute / 1e9 if compute > 0.0 and flops > 0.0 else 0.0
    return {
        "schema": REPORT_SCHEMA,
        "command": command,
        "backend": backend,
        "workers": workers,
        "timings": timings,
        "objective": [float(x) for x in objective],
        "flops": float(flops),
        "gflops_per_s": float(gflops),
        "outputs": outputs,
        "collectives": dataclasses.asdict(stats),
    }


def _write_report(out_dir, report):
    path = Path(out_dir) / "report.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path


def _run_workers(args, manifest, worker):
    """Drive ``worker(comm, entries)`` on every rank this process runs.

    ``entries`` is a rank's contiguous slice of the manifest's subjects;
    artifacts are written by whichever rank owns a subject. This process
    runs one socket rank, or every rank of a thread group (the serial
    backend is a group of one): rank 0 on the calling thread, the others
    on threads of their own. A failing rank closes its links; every
    communicator is closed and the first error is raised.
    """
    n_subjects = len(manifest.subjects)
    comms = []
    if args.backend == "sockets" and not args.spawn_local:
        try:
            comms = [SocketCommunicator.from_env()]
        except ConfigError as exc:
            raise UsageError(f"{exc} (or use --spawn-local N)") from None
        size = comms[0].size
    else:
        size = 1 if args.backend == "serial" else args.workers
    if size > n_subjects:
        for comm in comms:
            comm.close()
        raise UsageError(f"{size} ranks for {n_subjects} subjects; every rank needs one")
    if args.backend == "sockets" and args.spawn_local:
        return _spawn_local(args)
    comms = comms or create_thread_communicators(size)
    # a rank records its error before it closes its links: the first is the cause
    failures = []

    def run_rank(comm):
        lo, hi = _chunk(n_subjects, size, comm.rank)
        try:
            worker(comm, manifest.subjects[lo:hi])
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)
            comm.close()

    with ThreadPoolExecutor(size, thread_name_prefix="factorfit-worker") as pool:
        others = [pool.submit(run_rank, comm) for comm in comms[1:]]
        run_rank(comms[0])
    for other in others:
        other.result()
    for comm in comms:
        comm.close()
    if failures:
        raise failures[0]
    return 0


def _spawn_local(args):
    """Fork N local rank processes re-running this command over sockets.

    The children are polled, so the first one to fail ends the run: the
    others are terminated and reaped at once instead of waiting out the
    transport timeout. Returns 0 when every rank succeeds, else the
    failing rank's exit code (1 when a signal ended it).
    """
    workers = args.workers
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    argv = [a for a in args.argv if a != "--spawn-local"]
    procs = []
    for rank in range(workers):
        env = dict(os.environ)
        env[ENV_RANK] = str(rank)
        env[ENV_SIZE] = str(workers)
        env[ENV_COORD] = f"127.0.0.1:{port}"
        procs.append(
            subprocess.Popen([sys.executable, "-m", "factorfit", *argv], env=env)
        )
    try:
        while True:
            codes = [p.poll() for p in procs]
            failed = [c for c in codes if c not in (None, 0)]
            if failed:
                return max(failed[0], 1)
            if all(c == 0 for c in codes):
                return 0
            time.sleep(0.02)
    finally:
        for p in procs:
            if p.poll() is None:
                p.terminate()
        for p in procs:
            p.wait()


def _validate(*settings, workers=1):
    """Check the flags before any file is read.

    ``--workers`` is checked here; every other rule lives in its settings
    object's own ``validate()``, and the usage error quotes its text.
    """
    if workers < 1:
        raise UsageError("--workers must be at least 1")
    try:
        for s in settings:
            s.validate()
    except (ConfigError, InvalidInputError) as exc:
        raise UsageError(str(exc)) from None


def _run_fit(args, manifest, command, fit, save, flops=0.0, outputs=None):
    """The worker body every fitting command shares, on every rank.

    Load this rank's subjects -> barrier -> ``fit(subjects, comm)``, which
    returns (result, objective trace) -> barrier -> ``save(comm, result,
    report)``. ``report`` is the run report on rank 0 and ``None``
    elsewhere; its compute time excludes time spent inside collectives.
    """

    def worker(comm, entries):
        t0 = time.perf_counter()
        subjects = [load_subject(e.data_path, e.coords_path, e.subject_id) for e in entries]
        comm.barrier()
        t1 = time.perf_counter()
        result, objective = fit(subjects, comm)
        comm.barrier()
        t2 = time.perf_counter()
        report = None
        if comm.rank == 0:
            comm_time = comm.stats.seconds
            timings = {
                "load": t1 - t0,
                "compute": (t2 - t1) - comm_time,
                "communicate": comm_time,
            }
            report = _make_report(
                command, args.backend, comm.size, timings, objective, flops,
                outputs or {}, comm.stats,
            )
        save(comm, result, report)

    return _run_workers(args, manifest, worker)


def _srm_setup(args, zero_iters=False):
    """Flag checks, manifest, flop estimate and fit closure for fit-srm and bench.

    Returns (manifest, flops, fit) for :func:`_run_fit`. With
    ``zero_iters`` (bench), --iters 0 is allowed and fits nothing.
    """
    skip = zero_iters and args.iters == 0
    config = srm.SrmConfig(k=args.k, iterations=1 if skip else args.iters, seed=args.seed)
    _validate(config, workers=args.workers)
    manifest = load_manifest(args.manifest, model="srm")
    headers = [read_header(e.data_path) for e in manifest.subjects]
    flops = srm_flop_estimate(
        [h[0] for h in headers], headers[0][1], args.k, args.iters
    )

    def fit(subjects, comm):
        if skip:
            return None, []
        model = srm.fit(subjects, config, comm)
        return model, model.objective_trace

    return manifest, flops, fit


def _cmd_fit_srm(args):
    manifest, flops, fit = _srm_setup(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "subjects").mkdir(exist_ok=True)

    def save(comm, model, report):
        for sid, W, mu in zip(model.subject_ids, model.W, model.mu):
            save_matrix(out_dir / "subjects" / f"{sid}_mapping.sfab", W)
            save_matrix(out_dir / "subjects" / f"{sid}_mean.sfab", mu[:, None])
        if comm.rank == 0:
            save_matrix(out_dir / "shared_response.sfab", model.S)
            save_matrix(out_dir / "shared_covariance.sfab", model.sigma_s)
            save_matrix(out_dir / "noise_variance.sfab", model.rho2_all[:, None])
            _write_report(out_dir, report)

    return _run_fit(
        args, manifest, "fit-srm", fit, save, flops=flops, outputs={"dir": str(out_dir)}
    )


def _cmd_fit_htfa(args):
    config = htfa.HtfaConfig(
        k=args.k,
        outer_iterations=args.outer,
        local_iterations=args.local_iters,
        width_lower_frac=args.width_lo,
        width_upper_frac=args.width_hi,
    )
    plan = htfa.SubsamplePlan(
        voxel_fraction=args.voxel_frac,
        tr_fraction=args.tr_frac,
        max_voxels=args.max_voxels,
        max_trs=args.max_trs,
        seed=args.seed,
    )
    _validate(config, plan, workers=args.workers)
    manifest = load_manifest(args.manifest, model="htfa")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "subjects").mkdir(exist_ok=True)

    def fit(subjects, comm):
        objective = []
        result = htfa.fit(subjects, config, plan, comm, iteration_log=objective)
        return result, objective

    def save(comm, result, report):
        template, locals_ = result
        for model in locals_:
            base = out_dir / "subjects" / model.subject_id
            save_matrix(f"{base}_centers.sfab", model.centers)
            save_matrix(f"{base}_widths.sfab", model.widths[:, None])
            save_matrix(f"{base}_weights.sfab", model.weights)
            np.savetxt(
                f"{base}_connectivity.csv",
                htfa.connectivity_matrix(model),
                delimiter=",",
            )
        if comm.rank == 0:
            with open(out_dir / "template.json", "w") as fh:
                fields = {f.name: np.asarray(getattr(template, f.name)).tolist()
                          for f in dataclasses.fields(template)}
                json.dump(fields, fh, indent=2)
                fh.write("\n")
            _write_report(out_dir, report)

    return _run_fit(args, manifest, "fit-htfa", fit, save, outputs={"dir": str(out_dir)})


def _cmd_gen_synth(args):
    try:
        dims = tuple(int(p) for p in args.partition.split(","))
    except ValueError:
        raise UsageError("--partition must be integers X,Y,Z") from None
    spec = SynthSpec(
        seed_manifest=Path(args.seed_manifest),
        n_subjects=args.subjects,
        partition_dims=dims,
        base_seed=args.seed,
    )
    _validate(spec)
    manifest = generate_synthetic(spec, args.out)
    print(manifest.path)
    return 0


def _cmd_bench(args):
    manifest, flops, fit = _srm_setup(args, zero_iters=True)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    def save(comm, _model, report):
        if comm.rank == 0:
            print(json.dumps(report, indent=2))
            if out_dir:
                _write_report(out_dir, report)

    return _run_fit(args, manifest, "bench", fit, save, flops=flops)


def _check_woodbury():
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(5):
        n_subj, k, n_trs = 3, 4, 15
        Ws = [polar_orthogonal(rng.standard_normal((20, k))) for _ in range(n_subj)]
        rho2 = list(rng.uniform(0.3, 2.0, n_subj))
        C = rng.standard_normal((k, k))
        sigma = C @ C.T + np.eye(k)
        Xhats = [srm.demean(rng.standard_normal((20, n_trs)))[0] for _ in range(n_subj)]
        reduced = sum(
            srm.e_step_local(W, r, X) for W, r, X in zip(Ws, rho2, Xhats)
        )
        rho0 = sum(1.0 / r for r in rho2)
        S_opt, var_opt = srm.e_step_global(reduced, sigma, rho0)
        S_ref, var_ref = reference.naive_posterior(Ws, rho2, sigma, Xhats)
        worst = max(
            worst,
            float(np.max(np.abs(S_opt - S_ref))),
            float(np.max(np.abs(var_opt - var_ref))),
        )
    return worst <= 1e-8, f"max abs deviation {worst:.3e} (tol 1e-8)"


def _check_lemma():
    rng = np.random.default_rng(20241)
    worst = 0.0
    for _ in range(20):
        k, n_subj = 4, 6
        covs = []
        for _ in range(k):
            C = rng.standard_normal((3, 3))
            covs.append(C @ C.T + 0.5 * np.eye(3))
        Cp = rng.standard_normal((3, 3))
        template = htfa.GlobalTemplate(
            centers=rng.standard_normal((k, 3)),
            center_cov=np.stack(covs),
            widths=rng.uniform(1.0, 5.0, k),
            width_var=rng.uniform(0.1, 2.0, k),
            prior_center_cov=Cp @ Cp.T + 0.5 * np.eye(3),
            prior_width_var=float(rng.uniform(0.5, 2.0)),
        )
        lc = rng.standard_normal((n_subj, k, 3))
        lw = rng.uniform(1.0, 5.0, (n_subj, k))
        new = htfa.global_step(lc, lw, template, n_subj)
        ref = reference.naive_template_update(
            template.centers,
            template.center_cov,
            template.widths,
            template.width_var,
            template.prior_center_cov,
            template.prior_width_var,
            lc.mean(axis=0),
            lw.mean(axis=0),
            n_subj,
        )
        worst = max(
            worst,
            float(np.max(np.abs(new.centers - ref[0]))),
            float(np.max(np.abs(new.center_cov - ref[1]))),
            float(np.max(np.abs(new.widths - ref[2]))),
            float(np.max(np.abs(new.width_var - ref[3]))),
        )
    return worst <= 1e-10, f"max abs deviation {worst:.3e} (tol 1e-10)"


def _blob_problem(rng):
    axes = np.meshgrid(np.arange(9.0), np.arange(8.0), np.arange(6.0), indexing="ij")
    pos = np.column_stack([a.ravel() for a in axes])
    grid = VoxelGrid.from_positions(pos)
    k = 3
    centers = np.array([[2.0, 2.0, 2.0], [6.0, 5.0, 3.0], [4.0, 3.0, 2.0]])
    widths = np.array([3.0, 4.0, 2.5])
    F = rbf_factor_matrix(centers, widths, grid)
    W = rng.standard_normal((12, k))
    X = (W @ F).T + 0.01 * rng.standard_normal((pos.shape[0], 12))
    return grid, centers, widths, W, X


def _check_jacobian():
    rng = np.random.default_rng(20242)
    grid, centers, widths, W, X = _blob_problem(rng)
    cfg = htfa.HtfaConfig(k=3)
    template = htfa.init_template(SubjectData("probe", X, grid), cfg)
    worst = 0.0
    for _ in range(5):
        Xs, vox, trs, phi = htfa.subsample(
            X, htfa.SubsamplePlan(max_voxels=200, max_trs=10, seed=1), rng
        )
        view = grid.take(vox)
        prob = htfa.build_center_problem(
            Xs.T, W[trs], widths, template, phi, view, 0.7, bounds_grid=grid
        )
        x0 = (centers + rng.uniform(-0.4, 0.4, centers.shape)).ravel()
        worst = max(worst, trf.check_jacobian(prob, x0))
        prob = htfa.build_width_problem(
            Xs.T, W[trs], centers, template, phi, view, 0.7, cfg, bounds_grid=grid
        )
        w0 = widths * rng.uniform(0.8, 1.2, widths.shape)
        worst = max(worst, trf.check_jacobian(prob, w0))
    return worst <= 1e-5, f"max relative deviation {worst:.3e} (tol 1e-5)"


def _check_rbf_cache():
    rng = np.random.default_rng(20243)
    worst = 0.0
    for _ in range(10):
        nx, ny, nz = rng.integers(3, 9, size=3)
        axes = np.meshgrid(
            np.sort(rng.uniform(-5, 5, nx)),
            np.sort(rng.uniform(-5, 5, ny)),
            np.sort(rng.uniform(-5, 5, nz)),
            indexing="ij",
        )
        pos = np.column_stack([a.ravel() for a in axes])
        keep = rng.random(pos.shape[0]) < 0.8
        if not keep.any():
            keep[0] = True
        grid = VoxelGrid.from_positions(pos[keep])
        k = int(rng.integers(1, 6))
        centers = rng.uniform(-5, 5, (k, 3))
        widths = rng.uniform(0.5, 10.0, k)
        cached = rbf_factor_matrix(centers, widths, grid)
        direct = rbf_factor_matrix_direct(centers, widths, grid.positions)
        worst = max(worst, float(np.max(np.abs(cached - direct))))
    return worst <= 1e-14, f"max abs deviation {worst:.3e} (tol 1e-14)"


_VALIDATION_CHECKS = {
    "woodbury": _check_woodbury,
    "lemma": _check_lemma,
    "jacobian": _check_jacobian,
    "rbf-cache": _check_rbf_cache,
}


def _cmd_validate(args):
    names = list(_VALIDATION_CHECKS)
    if args.only:
        requested = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = [n for n in requested if n not in _VALIDATION_CHECKS]
        if unknown:
            raise UsageError(
                f"unknown checks: {', '.join(unknown)} (have: {', '.join(names)})"
            )
        names = requested
    failures = 0
    width = max(len(n) for n in names)
    for name in names:
        ok, detail = _VALIDATION_CHECKS[name]()
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{name:<{width}}  {status}  {detail}")
    return 0 if failures == 0 else 1


def _add_common_fit_flags(sub):
    sub.add_argument("--manifest", required=True, help="dataset manifest JSON")
    sub.add_argument("--k", type=int, default=60, help="number of factors")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--backend", choices=("serial", "threads", "sockets"), default="serial"
    )
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument(
        "--spawn-local",
        action="store_true",
        help="sockets backend: fork --workers local rank processes",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="factorfit",
        description="Multi-subject factor analysis: shared response and topographic models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-srm", help="fit the shared response model")
    _add_common_fit_flags(p)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_fit_srm)

    p = sub.add_parser("fit-htfa", help="fit hierarchical topographic factors")
    _add_common_fit_flags(p)
    p.add_argument("--outer", type=int, default=10)
    p.add_argument("--local-iters", type=int, default=10)
    p.add_argument("--voxel-frac", type=float, default=0.25)
    p.add_argument("--tr-frac", type=float, default=0.10)
    p.add_argument("--max-voxels", type=int, default=3000)
    p.add_argument("--max-trs", type=int, default=300)
    p.add_argument("--width-lo", type=float, default=0.04)
    p.add_argument("--width-hi", type=float, default=1.80)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_fit_htfa)

    p = sub.add_parser("gen-synth", help="generate permutation-based synthetic subjects")
    p.add_argument("--seed-manifest", required=True)
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--partition", default="16,16,8", help="partition dims X,Y,Z")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen_synth)

    p = sub.add_parser("bench", help="benchmark the shared-response fit")
    _add_common_fit_flags(p)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("validate", help="run the oracle-equivalence suite")
    p.add_argument("--only", default=None, help="comma-separated subset of checks")
    p.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return int(args.handler(args) or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FactorFitError as exc:
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1
    except OSError as exc:
        print(
            json.dumps({"error": {"type": "OSError", "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
