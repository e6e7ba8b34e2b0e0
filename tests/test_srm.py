import hashlib
import socket
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datagen import srm_subjects, traced_peak
from factorfit import kernels, reference, srm
from factorfit.collectives import (
    PairwiseSum,
    SerialCommunicator,
    SocketCommunicator,
    create_thread_communicators,
)
from factorfit.data_io import SubjectData
from factorfit.errors import (
    CollectiveContractError,
    ConfigError,
    InvalidInputError,
    RankError,
    ShapeError,
)
from factorfit.kernels import polar_orthogonal, trace_ata


def fit_on_threads(chunks, cfg, sockets=False):
    """srm.fit with one thread rank per chunk, linked by socket pairs or,
    with ``sockets``, over TCP on the loopback; returns the models by rank."""
    if sockets:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            coord = f"127.0.0.1:{probe.getsockname()[1]}"
        comms = [None] * len(chunks)
    else:
        comms = create_thread_communicators(len(chunks), timeout=30.0)
    results = [None] * len(chunks)
    errors = [None] * len(chunks)

    def run(rank):
        try:
            if sockets:
                comms[rank] = SocketCommunicator(rank, len(chunks), coord, timeout=30.0)
            results[rank] = srm.fit(chunks[rank], cfg, comms[rank])
        except BaseException as exc:  # noqa: BLE001
            errors[rank] = exc
            if comms[rank] is not None:
                comms[rank].close()

    threads = [threading.Thread(target=run, args=(r,)) for r in range(len(chunks))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads)
    for comm in comms:
        if comm is not None:
            comm.close()
    assert errors == [None] * len(chunks)
    return results


def random_model(rng, n_subjects=3, n_voxels=20, n_trs=15, k=4):
    Ws = [polar_orthogonal(rng.standard_normal((n_voxels, k))) for _ in range(n_subjects)]
    rho2 = list(rng.uniform(0.3, 2.5, n_subjects))
    C = rng.standard_normal((k, k))
    sigma_s = C @ C.T + np.eye(k)
    Xhats = [
        srm.demean(rng.standard_normal((n_voxels, n_trs)))[0]
        for _ in range(n_subjects)
    ]
    return Ws, rho2, sigma_s, Xhats


class TestDemean:
    def test_small_example(self):
        Xhat, mu = srm.demean(np.array([[1.0, 3.0], [2.0, 2.0]]))
        assert np.array_equal(mu, [2.0, 2.0])
        assert np.array_equal(Xhat, [[-1.0, 1.0], [0.0, 0.0]])

    def test_zero_mean_input_unchanged(self):
        X = np.array([[1.0, -1.0], [2.0, -2.0]])
        Xhat, mu = srm.demean(X)
        assert np.array_equal(Xhat, X)
        assert np.array_equal(mu, [0.0, 0.0])

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(0)
        Xhat, _ = srm.demean(rng.normal(5.0, 2.0, (100, 20)))
        assert np.max(np.abs(Xhat.sum(axis=1))) <= 1e-10


class TestCenterStats:
    @pytest.mark.parametrize("n_voxels", [1, 63, 64, 65, 200])
    def test_matches_demean(self, n_voxels):
        rng = np.random.default_rng(27)
        X = rng.normal(5.0, 2.0, (n_voxels, 17)) + rng.normal(0.0, 1e3, (n_voxels, 1))
        Xhat, mu_ref = srm.demean(X)
        mu, energy = srm.center_stats(X)
        assert mu.tobytes() == mu_ref.tobytes()
        assert np.allclose(energy, (Xhat**2).sum(axis=1), rtol=1e-13, atol=0.0)

    def test_read_only_input(self):
        rng = np.random.default_rng(28)
        X = rng.standard_normal((150, 11))
        before = X.tobytes()
        X.flags.writeable = False
        _, energy = srm.center_stats(X)
        assert X.tobytes() == before
        assert np.allclose(energy, (srm.demean(X)[0] ** 2).sum(axis=1), rtol=1e-13)


class TestInitSubject:
    def test_square_case_orthogonal(self):
        W, rho2 = srm.init_subject(4, srm.SrmConfig(k=4, seed=3), 0)
        assert rho2 == 1.0
        assert abs(abs(np.linalg.det(W)) - 1.0) <= 1e-8

    def test_deterministic(self):
        cfg = srm.SrmConfig(k=3, seed=42)
        W1, _ = srm.init_subject(10, cfg, 5)
        W2, _ = srm.init_subject(10, cfg, 5)
        assert np.array_equal(W1, W2)

    def test_seed_changes_result(self):
        W1, _ = srm.init_subject(10, srm.SrmConfig(k=3, seed=1), 0)
        W2, _ = srm.init_subject(10, srm.SrmConfig(k=3, seed=2), 0)
        assert np.linalg.norm(W1 - W2) > 0.0

    def test_too_few_voxels(self):
        with pytest.raises(ShapeError):
            srm.init_subject(2, srm.SrmConfig(k=3), 0)


class TestEStep:
    def test_local_identity_mapping(self):
        rng = np.random.default_rng(1)
        Xhat = rng.standard_normal((6, 5))
        W = np.zeros((6, 2))
        W[0, 0] = W[1, 1] = 1.0
        out = srm.e_step_local(W, 1.0, Xhat)
        assert np.array_equal(out, Xhat[:2])

    def test_local_zero_data(self):
        W = polar_orthogonal(np.random.default_rng(2).standard_normal((5, 2)))
        assert np.array_equal(srm.e_step_local(W, 2.0, np.zeros((5, 4))), np.zeros((2, 4)))

    def test_local_matches_dense(self):
        rng = np.random.default_rng(3)
        W = polar_orthogonal(rng.standard_normal((9, 3)))
        Xhat = rng.standard_normal((9, 7))
        out = srm.e_step_local(W, 1.7, Xhat)
        assert np.max(np.abs(out - (1 / 1.7) * W.T @ Xhat)) <= 1e-12

    def test_local_mean_correction_matches_centered(self):
        """The term on X, less its row means, equals the term on X - mu 1^T."""
        rng = np.random.default_rng(29)
        W = polar_orthogonal(rng.standard_normal((50, 4)))
        X = rng.normal(5.0, 1.0, (50, 1)) + rng.standard_normal((50, 23))
        want = srm.e_step_local(W, 1.7, X - X.mean(axis=1, keepdims=True))
        out = np.empty((4, 23))
        got = srm.e_step_local(W, 1.7, X, out=out)
        assert got is out
        got -= got.mean(axis=1, keepdims=True)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_global_single_subject_identity_covariance(self):
        rng = np.random.default_rng(4)
        W = polar_orthogonal(rng.standard_normal((8, 3)))
        Xhat = srm.demean(rng.standard_normal((8, 6)))[0]
        reduced = srm.e_step_local(W, 1.0, Xhat)
        S, var_s = srm.e_step_global(reduced, np.eye(3), 1.0)
        assert np.max(np.abs(S - 0.5 * W.T @ Xhat)) <= 1e-12
        assert np.max(np.abs(var_s - 0.5 * np.eye(3))) <= 1e-12

    def test_global_zero_reduction(self):
        S, _ = srm.e_step_global(np.zeros((3, 5)), np.eye(3), 2.0)
        assert np.array_equal(S, np.zeros((3, 5)))

    def test_woodbury_equivalence(self):
        rng = np.random.default_rng(5)
        Ws, rho2, sigma_s, Xhats = random_model(rng)
        reduced = sum(srm.e_step_local(W, r, X) for W, r, X in zip(Ws, rho2, Xhats))
        rho0 = sum(1.0 / r for r in rho2)
        S_opt, var_opt = srm.e_step_global(reduced, sigma_s, rho0)
        S_ref, var_ref = reference.naive_posterior(Ws, rho2, sigma_s, Xhats)
        assert np.max(np.abs(S_opt - S_ref)) <= 1e-8
        assert np.max(np.abs(var_opt - var_ref)) <= 1e-8

    def test_global_singular_covariance_rejected(self):
        from factorfit.errors import DefinitenessError

        singular = np.zeros((3, 3))
        with pytest.raises(DefinitenessError):
            srm.e_step_global(np.zeros((3, 4)), singular, 1.0)


class TestUpdateSigma:
    def test_zero_response(self):
        sigma_new, trace = srm.update_sigma_s(np.eye(3), 1.0, np.zeros((3, 4)))
        assert np.max(np.abs(sigma_new - 0.5 * np.eye(3))) <= 1e-12
        assert abs(trace - 1.5) <= 1e-12

    def test_scalar_case(self):
        sigma_new, trace = srm.update_sigma_s(np.eye(1), 1.0, np.array([[2.0]]))
        assert abs(sigma_new[0, 0] - 4.5) <= 1e-12
        assert abs(trace - 4.5) <= 1e-12

    def test_matches_naive_second_moment(self):
        rng = np.random.default_rng(6)
        Ws, rho2, sigma_s, Xhats = random_model(rng)
        reduced = sum(srm.e_step_local(W, r, X) for W, r, X in zip(Ws, rho2, Xhats))
        rho0 = sum(1.0 / r for r in rho2)
        S, _ = srm.e_step_global(reduced, sigma_s, rho0)
        sigma_new, _ = srm.update_sigma_s(sigma_s, rho0, S)
        S_ref, var_ref = reference.naive_posterior(Ws, rho2, sigma_s, Xhats)
        assert np.max(np.abs(sigma_new - reference.naive_sigma_update(S_ref, var_ref))) <= 1e-8

    def test_reused_posterior_covariance_is_identical(self):
        rng = np.random.default_rng(22)
        Ws, rho2, sigma_s, Xhats = random_model(rng)
        reduced = sum(srm.e_step_local(W, r, X) for W, r, X in zip(Ws, rho2, Xhats))
        rho0 = sum(1.0 / r for r in rho2)
        S, var_s = srm.e_step_global(reduced, sigma_s, rho0)
        recomputed = srm.update_sigma_s(sigma_s, rho0, S)
        reused = srm.update_sigma_s(sigma_s, rho0, S, var_s)
        assert recomputed[0].tobytes() == reused[0].tobytes()
        assert recomputed[1] == reused[1]


class TestMStep:
    def test_exact_model_recovers_mapping(self):
        rng = np.random.default_rng(7)
        W_true = polar_orthogonal(rng.standard_normal((12, 3)))
        S = rng.standard_normal((3, 10))
        Xhat = W_true @ S
        trace = trace_ata(S) / S.shape[1]  # zero posterior covariance limit
        W_new, rho2 = srm.m_step_subject(Xhat, S, trace)
        assert np.max(np.abs(W_new - W_true)) <= 1e-10
        assert rho2 <= 1e-10

    def test_zero_response_degenerate(self):
        rng = np.random.default_rng(8)
        Xhat = rng.standard_normal((6, 4))
        with pytest.raises(RankError):
            srm.m_step_subject(Xhat, np.zeros((2, 4)), 1.0)

    def test_matches_naive_rho(self):
        rng = np.random.default_rng(9)
        Ws, rho2, sigma_s, Xhats = random_model(rng)
        reduced = sum(srm.e_step_local(W, r, X) for W, r, X in zip(Ws, rho2, Xhats))
        rho0 = sum(1.0 / r for r in rho2)
        S, var_s = srm.e_step_global(reduced, sigma_s, rho0)
        _, trace = srm.update_sigma_s(sigma_s, rho0, S)
        W_new, rho2_new = srm.m_step_subject(Xhats[0], S, trace)
        # oracle: expected residual plus posterior-covariance correction,
        # with the trace identity applied to the same posterior
        S_ref, var_ref = reference.naive_posterior(Ws, rho2, sigma_s, Xhats)
        sigma_ref = reference.naive_sigma_update(S_ref, var_ref)
        expected = reference.naive_rho2(
            Xhats[0], W_new, S_ref, sigma_ref - (S_ref @ S_ref.T) / S.shape[1]
        )
        assert abs(rho2_new - expected) <= 1e-8

    def test_cross_term_matches_explicit_product(self):
        """rho2 from 2 <W_new, A>, which is twice the sum of A's singular
        values, equals rho2 from <W_new^T Xhat, S>."""
        rng = np.random.default_rng(23)
        n_voxels, n_trs, k = 40, 30, 5
        Xhat = srm.demean(rng.standard_normal((n_voxels, n_trs)))[0]
        S = rng.standard_normal((k, n_trs))
        trace = trace_ata(S) / n_trs + 0.5
        W_new, rho2 = srm.m_step_subject(Xhat, S, trace)
        cross = float(np.einsum("kt,kt->", W_new.T @ Xhat, S))
        A = 0.5 * Xhat @ S.T
        assert abs(2.0 * np.sum(W_new * A) - cross) <= 1e-12 * abs(cross)
        sigma_sum = 2.0 * np.sum(np.linalg.svd(A, compute_uv=False))
        assert abs(sigma_sum - 2.0 * np.sum(W_new * A)) <= 1e-12 * sigma_sum
        explicit = (trace_ata(Xhat) + n_trs * trace - 2.0 * cross) / (n_trs * n_voxels)
        assert abs(rho2 - explicit) <= 1e-12 * explicit

    def test_precomputed_norm_is_identical(self):
        rng = np.random.default_rng(24)
        Xhat = srm.demean(rng.standard_normal((12, 9)))[0]
        S = rng.standard_normal((3, 9))
        W1, rho1 = srm.m_step_subject(Xhat, S, 1.3)
        W2, rho2 = srm.m_step_subject(Xhat, S, 1.3, trace_ata(Xhat))
        assert W1.tobytes() == W2.tobytes() and rho1 == rho2

    def test_mean_correction_matches_centered(self):
        """For S with zero row sums, the M-step on X equals the M-step on
        X - mu 1^T."""
        rng = np.random.default_rng(30)
        X = rng.normal(5.0, 1.0, (40, 1)) + rng.standard_normal((40, 30))
        mu = X.mean(axis=1)
        Xhat = X - mu[:, None]
        S = rng.standard_normal((5, 30))
        S -= S.mean(axis=1, keepdims=True)
        W_want, rho_want = srm.m_step_subject(Xhat, S, 1.3)
        W_got, rho_got = srm.m_step_subject(X, S, 1.3, trace_ata(Xhat), mu=mu)
        assert np.linalg.norm(W_got - W_want) <= 1e-12 * np.linalg.norm(W_want)
        assert abs(rho_got - rho_want) <= 1e-12 * rho_want
        with pytest.raises(ValueError, match="needs xhat_sq"):
            srm.m_step_subject(X, S, 1.3, mu=mu)

    def test_rho_floor(self):
        W_true = polar_orthogonal(np.random.default_rng(10).standard_normal((5, 2)))
        S = np.random.default_rng(11).standard_normal((2, 8))
        _, rho2 = srm.m_step_subject(W_true @ S, S, trace_ata(S) / 8)
        assert rho2 >= 1e-12


class TestFit:
    def test_near_noiseless_reconstruction(self):
        rng = np.random.default_rng(12)
        k = 2
        W_true = polar_orthogonal(rng.standard_normal((8, k)))
        S_true = rng.standard_normal((k, 6))
        X = W_true @ S_true + 1e-6 * rng.standard_normal((8, 6))
        model = srm.fit(
            [SubjectData("s0", X)],
            srm.SrmConfig(k=k, iterations=20, seed=0),
            SerialCommunicator(),
        )
        Xhat = srm.demean(X)[0]
        resid = np.linalg.norm(Xhat - model.W[0] @ model.S) ** 2
        assert resid / np.linalg.norm(Xhat) ** 2 <= 1e-3

    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigError):
            srm.SrmConfig(k=2, iterations=0).validate()

    def test_serial_vs_two_thread_ranks_bit_identical(self):
        matrices, _ = srm_subjects(n_subjects=4, n_voxels=30, n_trs=12, k=3, seed=99)
        subjects = [SubjectData(f"s{i}", X) for i, X in enumerate(matrices)]
        cfg = srm.SrmConfig(k=3, iterations=6, seed=5)
        serial = srm.fit(subjects, cfg, SerialCommunicator())

        comms = create_thread_communicators(2)
        chunks = [subjects[:2], subjects[2:]]
        results = [None, None]
        errors = [None, None]

        def run(rank):
            try:
                results[rank] = srm.fit(chunks[rank], cfg, comms[rank])
            except BaseException as exc:  # noqa: BLE001
                errors[rank] = exc
                comms[rank].close()

        threads = [threading.Thread(target=run, args=(r,)) for r in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for comm in comms:
            comm.close()
        assert errors == [None, None]
        assert np.array_equal(results[0].S, serial.S)
        assert np.array_equal(results[1].S, serial.S)
        for i in range(2):
            assert np.array_equal(results[0].W[i], serial.W[i])
            assert np.array_equal(results[1].W[i], serial.W[i + 2])

    def test_orthogonality_every_iteration(self):
        rng = np.random.default_rng(13)
        subjects = [SubjectData(f"s{i}", rng.standard_normal((15, 10))) for i in range(2)]
        cfg = srm.SrmConfig(k=3, iterations=1, seed=7)
        # run iteration-by-iteration fits to observe every M-step output
        for iters in range(1, 8):
            model = srm.fit(
                subjects, srm.SrmConfig(k=3, iterations=iters, seed=7), SerialCommunicator()
            )
            for W in model.W:
                assert np.max(np.abs(W.T @ W - np.eye(3))) <= 1e-8
            assert all(r > 0 for r in model.rho2)
            assert np.array_equal(model.sigma_s, model.sigma_s.T)
            assert np.all(np.linalg.eigvalsh(model.sigma_s) > 0)

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(14)
        n_subjects, n_voxels, n_trs, k = 2, 15, 12, 3
        Xhats = [
            srm.demean(rng.standard_normal((n_voxels, n_trs)))[0]
            for _ in range(n_subjects)
        ]
        cfg = srm.SrmConfig(k=k, seed=11)
        Ws = [srm.init_subject(n_voxels, cfg, i)[0] for i in range(n_subjects)]
        rho2 = [1.0] * n_subjects
        sigma_s = np.eye(k)
        lls = [reference.naive_log_likelihood(Ws, rho2, sigma_s, Xhats)]
        for _ in range(20):
            reduced = sum(srm.e_step_local(Ws[i], rho2[i], Xhats[i]) for i in range(n_subjects))
            rho0 = sum(1.0 / r for r in rho2)
            S, _ = srm.e_step_global(reduced, sigma_s, rho0)
            sigma_s, trace = srm.update_sigma_s(sigma_s, rho0, S)
            for i in range(n_subjects):
                Ws[i], rho2[i] = srm.m_step_subject(Xhats[i], S, trace)
            lls.append(reference.naive_log_likelihood(Ws, rho2, sigma_s, Xhats))
        assert np.all(np.diff(lls) >= -1e-9)

    def test_tolerance_stop(self):
        matrices, _ = srm_subjects(n_subjects=2, n_voxels=20, n_trs=10, k=2, seed=3)
        subjects = [SubjectData(f"s{i}", X) for i, X in enumerate(matrices)]
        cfg = srm.SrmConfig(k=2, iterations=50, seed=1, tolerance=1e-8)
        model = srm.fit(subjects, cfg, SerialCommunicator())
        assert len(model.objective_trace) < 50

    @pytest.mark.parametrize("k", [5, 6])
    def test_k_not_below_trs_is_config_error(self, k):
        # demeaned data has rank <= T-1, so k >= T used to fail as a
        # RankError inside the first M-step
        rng = np.random.default_rng(21)
        subjects = [SubjectData(f"s{i}", rng.standard_normal((50, 5))) for i in range(2)]
        with pytest.raises(ConfigError, match=f"k={k} .* T=5"):
            srm.fit(subjects, srm.SrmConfig(k=k, iterations=3), SerialCommunicator())

    @pytest.mark.parametrize("tolerance, iterations_run", [(None, 6), (1e-8, 11)])
    def test_one_broadcast_per_iteration(self, tolerance, iterations_run):
        """rank_offsets, then one per iteration (S and the trace)."""
        matrices, _ = srm_subjects(n_subjects=2, n_voxels=20, n_trs=10, k=2, seed=3)
        subjects = [SubjectData(f"s{i}", X) for i, X in enumerate(matrices)]
        iterations = 6 if tolerance is None else 50
        cfg = srm.SrmConfig(k=2, iterations=iterations, seed=1, tolerance=tolerance)
        comm = SerialCommunicator()
        model = srm.fit(subjects, cfg, comm)
        assert len(model.objective_trace) == iterations_run
        assert comm.stats.bcast_calls == iterations_run + 1

    @pytest.mark.parametrize("level", [3.0, 7.7, 1e5 + 0.1])
    def test_constant_subject_named(self, level):
        # demeaning leaves exact zeros (3.0) or rounding residue (7.7,
        # 1e5 + 0.1 over 37 TRs); both used to surface as an anonymous
        # RankError from the first M-step's SVD
        rng = np.random.default_rng(25)
        subjects = [
            SubjectData("live", rng.standard_normal((20, 37))),
            SubjectData("flat", np.full((20, 37), level)),
        ]
        with pytest.raises(InvalidInputError, match="subject flat"):
            srm.fit(subjects, srm.SrmConfig(k=2, iterations=3), SerialCommunicator())

    def test_rank_deficient_subject_named(self):
        # one live voxel over a constant background: demeaned rank 1 < k,
        # which passes the constant-subject check and used to fail the
        # first M-step with an anonymous RankError
        rng = np.random.default_rng(26)
        low = np.full((20, 12), 3.0)
        low[7] = rng.standard_normal(12)
        subjects = [
            SubjectData("live", rng.standard_normal((20, 12))),
            SubjectData("low-rank", low),
        ]
        with pytest.raises(RankError, match="subject low-rank: .*k=3"):
            srm.fit(subjects, srm.SrmConfig(k=3, iterations=3), SerialCommunicator())

    @pytest.mark.parametrize("background", [1e3, 1e5])
    def test_rank_deficient_over_large_background_named(self, background):
        # the fit never subtracts the mean from the data, so the constant
        # voxels keep a rounding residue of about eps * background; only the
        # up-front count of varying voxels tells them from live ones
        rng = np.random.default_rng(26)
        low = np.full((20, 12), background)
        low[7] += rng.standard_normal(12)
        subjects = [
            SubjectData("live", rng.standard_normal((20, 12))),
            SubjectData("low-rank", low),
        ]
        with pytest.raises(RankError, match="subject low-rank: only 1 of its 20 .*k=3"):
            srm.fit(subjects, srm.SrmConfig(k=3, iterations=3), SerialCommunicator())

    @pytest.mark.parametrize("background", [1e3, 1e6])
    def test_collinear_voxels_over_large_background_named(self, background):
        # three varying voxels pass the up-front count, but they are
        # multiples of one series, so Xhat has rank 1 < k; X S^T carries the
        # background's rounding error into A, which the M-step's rank check
        # must not take for signal
        rng = np.random.default_rng(34)
        low = np.full((20, 40), background)
        low[[3, 7, 11]] += np.outer([1.0, -2.5, 0.75], rng.standard_normal(40))
        subjects = [
            SubjectData("live", rng.standard_normal((20, 40))),
            SubjectData("low-rank", low),
        ]
        with pytest.raises(RankError, match="subject low-rank: rank-deficient .*k=3"):
            srm.fit(subjects, srm.SrmConfig(k=3, iterations=3), SerialCommunicator())

    def test_too_few_voxels_named(self):
        rng = np.random.default_rng(31)
        subjects = [
            SubjectData("live", rng.standard_normal((20, 12))),
            SubjectData("tiny", rng.standard_normal((2, 12))),
        ]
        with pytest.raises(ShapeError, match="subject tiny has 2 voxels, fewer than k=3"):
            srm.fit(subjects, srm.SrmConfig(k=3, iterations=3), SerialCommunicator())

    def test_voxel_offsets_do_not_change_fit(self):
        """Adding 1e3 * c 1^T to a subject moves its mean, not its fit."""
        matrices, _ = srm_subjects(n_subjects=3, n_voxels=40, n_trs=25, k=3, seed=32)
        rng = np.random.default_rng(33)
        shifted = [X + 1e3 * rng.standard_normal((len(X), 1)) for X in matrices]
        cfg = srm.SrmConfig(k=3, iterations=6, seed=2)
        base, moved = (
            srm.fit([SubjectData(f"s{i}", X) for i, X in enumerate(data)], cfg,
                    SerialCommunicator())
            for data in (matrices, shifted)
        )
        assert np.linalg.norm(moved.S - base.S) <= 1e-9 * np.linalg.norm(base.S)
        for W_base, W_moved in zip(base.W, moved.W):
            assert np.linalg.norm(W_moved - W_base) <= 1e-9 * np.linalg.norm(W_base)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_response_has_zero_row_sums(self, workers):
        """The root centers S, so S 1 is rounding even over large voxel means."""
        matrices, _ = srm_subjects(n_subjects=4, n_voxels=40, n_trs=25, k=3, seed=35)
        rng = np.random.default_rng(36)
        subjects = [
            SubjectData(f"s{i}", X + 1e5 * rng.standard_normal((len(X), 1)))
            for i, X in enumerate(matrices)
        ]
        cfg = srm.SrmConfig(k=3, iterations=4, seed=3)
        if workers == 1:
            models = [srm.fit(subjects, cfg, SerialCommunicator())]
        else:
            models = fit_on_threads([subjects[:2], subjects[2:]], cfg)
        eps = np.finfo(np.float64).eps
        for model in models:
            S = model.S
            assert np.max(np.abs(S.sum(axis=1))) <= S.shape[1] * eps * np.max(np.abs(S))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_subject_named(self, bad):
        rng = np.random.default_rng(37)
        X = rng.standard_normal((20, 12))
        X[4, 9] = bad
        subjects = [
            SubjectData("live", rng.standard_normal((20, 12))),
            SubjectData("broken", X),
        ]
        comm = SerialCommunicator()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidInputError, match="subject broken has NaN or infinite"):
                srm.fit(subjects, srm.SrmConfig(k=3, iterations=3), comm)
        assert comm.stats.gather_calls == comm.stats.bcast_calls == 0
        # the NaN energy is the signal; no floating-point warning precedes it
        assert [str(w.message) for w in caught] == []

    def test_voxel_norms_once_posterior_inverted_once(self, monkeypatch):
        """One centering pass (means and ||Xhat_i||^2) per subject; two K x K
        inversions per iteration."""
        calls = {"center_stats": 0, "spd_inverse": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(srm, name, counting(name, getattr(srm, name)))
        matrices, _ = srm_subjects(n_subjects=3, n_voxels=20, n_trs=10, k=2, seed=4)
        subjects = [SubjectData(f"s{i}", X) for i, X in enumerate(matrices)]
        model = srm.fit(subjects, srm.SrmConfig(k=2, iterations=5, seed=1),
                        SerialCommunicator())
        assert calls == {"center_stats": 3, "spd_inverse": 2 * 5}
        assert len(model.objective_trace) == 5
        assert model.objective_trace[-1] == float(np.mean(model.rho2_all))

    def test_unequal_trs_rejected(self):
        subjects = [
            SubjectData("a", np.zeros((5, 4))),
            SubjectData("b", np.zeros((5, 6))),
        ]
        with pytest.raises(ShapeError):
            srm.fit(subjects, srm.SrmConfig(k=2), SerialCommunicator())

    def test_cross_rank_shape_mismatch_is_contract_error(self):
        from factorfit.errors import CollectiveContractError

        rng = np.random.default_rng(20)
        chunks = [
            [SubjectData("a", rng.standard_normal((10, 6)))],
            [SubjectData("b", rng.standard_normal((10, 9)))],  # different TRs
        ]
        cfg = srm.SrmConfig(k=2, iterations=2, seed=0)
        comms = create_thread_communicators(2, timeout=10.0)
        errors = [None, None]

        def run(rank):
            try:
                srm.fit(chunks[rank], cfg, comms[rank])
            except BaseException as exc:  # noqa: BLE001
                errors[rank] = exc
                comms[rank].close()

        threads = [threading.Thread(target=run, args=(r,)) for r in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for comm in comms:
            comm.close()
        assert any(isinstance(e, CollectiveContractError) for e in errors)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    counts=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    tolerance=st.sampled_from([None, 1e-4]),
)
def test_property_partition_independent(counts, tolerance):
    """Any split of the subjects over thread ranks reproduces the serial bytes."""
    matrices, _ = srm_subjects(
        n_subjects=sum(counts), n_voxels=12, n_trs=8, k=2, seed=len(counts)
    )
    subjects = [SubjectData(f"s{i}", X) for i, X in enumerate(matrices)]
    cfg = srm.SrmConfig(k=2, iterations=8, seed=3, tolerance=tolerance)
    serial = srm.fit(subjects, cfg, SerialCommunicator())
    bounds = np.cumsum([0] + counts)
    models = fit_on_threads([subjects[a:b] for a, b in zip(bounds, bounds[1:])], cfg)
    root = models[0]
    assert root.sigma_s.tobytes() == serial.sigma_s.tobytes()
    assert root.rho2_all.tobytes() == serial.rho2_all.tobytes()
    assert (np.array(root.objective_trace).tobytes()
            == np.array(serial.objective_trace).tobytes())
    for model in models:
        assert model.S.tobytes() == serial.S.tobytes()
    assert all(model.objective_trace == [] for model in models[1:])
    assert [W.tobytes() for m in models for W in m.W] == [W.tobytes() for W in serial.W]


class CountingPool(ThreadPoolExecutor):
    def __init__(self, workers):
        super().__init__(workers)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.mark.parametrize("n_voxels, n_trs", [(2100, 40), (8, 2100)])
def test_split_products_keep_bytes_across_ranks_and_pools(n_voxels, n_trs, monkeypatch):
    """From 2,048 voxels (A = S X_i^T) or TRs (the E-step term) the products
    run in parts on the pool; the bytes depend on neither ranks nor pool size."""
    matrices, _ = srm_subjects(n_subjects=4, n_voxels=n_voxels, n_trs=n_trs, k=3, seed=43)
    subjects = [SubjectData(f"s{i}", X) for i, X in enumerate(matrices)]
    cfg = srm.SrmConfig(k=3, iterations=3, seed=5)
    runs = []
    for workers in (1, 2, 3):
        pool = CountingPool(workers)
        monkeypatch.setattr(kernels, "_pool", pool)
        try:
            runs.append([srm.fit(subjects, cfg, SerialCommunicator())])
            if workers == 2:
                runs.append(fit_on_threads([subjects[:2], subjects[2:]], cfg))
        finally:
            pool.shutdown()
        assert pool.submitted > 0
    want = runs[0][0]
    for models in runs:
        root = models[0]
        assert root.sigma_s.tobytes() == want.sigma_s.tobytes()
        assert root.rho2_all.tobytes() == want.rho2_all.tobytes()
        for model in models:
            assert model.S.tobytes() == want.S.tobytes()
        assert [W.tobytes() for m in models for W in m.W] == [W.tobytes() for W in want.W]


@pytest.mark.parametrize("n_voxels, n_trs, k", [(200, 30, 8), (600, 100, 70)])
def test_tall_mappings_keep_bytes_across_backends(n_voxels, n_trs, k):
    """With V >= 8 K every M-step takes the QR route (at K = 70, with more
    columns than one row block); serial, 2 and 3 thread ranks and 2 TCP
    ranks give the same S, Sigma_s, rho^2 and mappings, byte for byte."""
    matrices, _ = srm_subjects(n_subjects=5, n_voxels=n_voxels, n_trs=n_trs, k=k,
                               noise=0.1, seed=44)
    subjects = [SubjectData(f"s{i}", X) for i, X in enumerate(matrices)]
    cfg = srm.SrmConfig(k=k, iterations=3, seed=6)

    def sha(*arrays):
        return hashlib.sha256(b"".join(a.tobytes() for a in arrays))

    def digest(models):
        root = models[0]
        return sha(root.sigma_s, root.rho2_all, *(W for m in models for W in m.W)).hexdigest()

    runs = {
        "threads-2": fit_on_threads([subjects[:2], subjects[2:]], cfg),
        "threads-3": fit_on_threads([subjects[:1], subjects[1:3], subjects[3:]], cfg),
        "sockets-2": fit_on_threads([subjects[:3], subjects[3:]], cfg, sockets=True),
    }
    serial = srm.fit(subjects, cfg, SerialCommunicator())
    assert max(np.max(np.abs(W.T @ W - np.eye(k))) for W in serial.W) <= 1e-13
    for name, models in runs.items():
        assert digest(models) == digest([serial]), name
        assert {sha(m.S).hexdigest() for m in models} == {sha(serial.S).hexdigest()}, name


class TestSummationTree:
    """The fit's side of the E-step sum; the tree itself is tested with
    :class:`~factorfit.collectives.PairwiseSum` in test_collectives.py."""

    def test_overlapping_ranks_fail_the_fit(self, monkeypatch):
        # both ranks believe they own subjects [0, 2)
        monkeypatch.setattr(srm, "rank_offsets", lambda comm, n: (0, 4))
        rng = np.random.default_rng(28)
        subjects = [SubjectData(f"s{i}", rng.standard_normal((10, 6))) for i in range(4)]
        comms = create_thread_communicators(2, timeout=10.0)
        errors = [None, None]

        def run(rank):
            try:
                srm.fit(subjects[2 * rank:2 * rank + 2], srm.SrmConfig(k=2), comms[rank])
            except BaseException as exc:  # noqa: BLE001
                errors[rank] = exc
                comms[rank].close()

        threads = [threading.Thread(target=run, args=(r,)) for r in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for comm in comms:
            comm.close()
        assert isinstance(errors[0], CollectiveContractError)
        assert "summed twice" in str(errors[0])

    @pytest.mark.parametrize("n_subjects", [1, 3, 6, 7, 64])
    def test_serial_fit_gathers_popcount_rows(self, monkeypatch, n_subjects):
        """A serial fit's tree ends at popcount(N) rows, which the root
        holds in its own stack, and at none once the round is over: it
        gathers no tree rows at all."""
        k, n_trs, iterations = 2, 5, 3
        stacks = []

        class Recording(PairwiseSum):
            def finish(self):
                held = (len(self.rows), len(self.spans))
                sums = super().finish()
                stacks.append((*held, len(self.rows)))
                return sums

        monkeypatch.setattr(srm, "PairwiseSum", Recording)
        rng = np.random.default_rng(29)
        subjects = [
            SubjectData(f"s{i}", rng.standard_normal((6, n_trs)))
            for i in range(n_subjects)
        ]
        comm = SerialCommunicator()
        srm.fit(subjects, srm.SrmConfig(k=k, iterations=iterations), comm)
        # each gather ships a 16-byte (rows, cols) header: rank_offsets adds one
        # count, every iteration's tree gather nothing, the last gather N
        # noise variances
        assert comm.stats.gather_calls == iterations + 2
        assert comm.stats.gather_bytes == (16 + 8) + iterations * 16 + (16 + 8 * n_subjects)
        assert stacks == [(bin(n_subjects).count("1"),) * 2 + (0,)] * iterations


class TestCommunicationVolume:
    def test_reduce_payload_independent_of_voxels(self):
        """Per-iteration communication is K*T-scale, never voxel-scale."""
        k, n_trs, iters = 3, 10, 4

        def gathered_bytes(n_voxels):
            rng = np.random.default_rng(0)
            subjects = [
                SubjectData(f"s{i}", rng.standard_normal((n_voxels, n_trs)))
                for i in range(2)
            ]
            comm = SerialCommunicator()
            srm.fit(subjects, srm.SrmConfig(k=k, iterations=iters, seed=0), comm)
            return comm.stats.gather_bytes, comm.stats.bcast_bytes

        small = gathered_bytes(25)
        large = gathered_bytes(400)
        assert small == large
        # every gather ships a 16-byte (rows, cols) header. Per iteration the
        # 2 subjects fold into one tree node, which the serial root keeps in
        # its own stack, so it gathers the header alone; around the loop,
        # rank_offsets sends one count and the final gather the 2 noise
        # variances.
        per_iter = 16
        assert small[0] == (16 + 8) + iters * per_iter + (16 + 2 * 8)


class TestProjection:
    @pytest.fixture
    def fitted(self):
        matrices, _ = srm_subjects(n_subjects=2, n_voxels=6, n_trs=12, k=2, seed=8)
        subjects = [SubjectData(f"s{i}", X) for i, X in enumerate(matrices)]
        return srm.fit(subjects, srm.SrmConfig(k=2, iterations=5, seed=2), SerialCommunicator())

    def test_mean_projects_to_zero(self, fitted):
        out = srm.project(fitted, 0, fitted.mu[0])
        assert np.max(np.abs(out)) == 0.0

    def test_square_mapping_roundtrip(self):
        rng = np.random.default_rng(15)
        k = 4
        W_true = polar_orthogonal(rng.standard_normal((k, k)))
        X = W_true @ rng.standard_normal((k, 9))
        model = srm.fit(
            [SubjectData("s0", X)],
            srm.SrmConfig(k=k, iterations=3, seed=4),
            SerialCommunicator(),
        )
        x = rng.standard_normal(k)
        assert np.max(np.abs(srm.map_between(model, 0, 0, x) - x)) <= 1e-10

    def test_tall_mapping_idempotent(self, fitted):
        rng = np.random.default_rng(16)
        x = rng.standard_normal(6)
        once = srm.map_between(fitted, 0, 0, x)
        twice = srm.map_between(fitted, 0, 0, once)
        assert np.max(np.abs(twice - once)) <= 1e-10

    def test_index_out_of_range(self, fitted):
        with pytest.raises(IndexError):
            srm.project(fitted, 5, np.zeros(6))


class TestMemoryContract:
    def test_no_voxel_scale_allocation_in_e_step(self):
        """K x K / K x T working set regardless of voxel count."""
        import tracemalloc

        rng = np.random.default_rng(17)
        n_subjects, n_voxels, k, n_trs = 4, 5000, 6, 30
        cfg = srm.SrmConfig(k=k, seed=0)
        Xhats = [
            srm.demean(rng.standard_normal((n_voxels, n_trs)))[0]
            for _ in range(n_subjects)
        ]
        Ws = [srm.init_subject(n_voxels, cfg, i)[0] for i in range(n_subjects)]
        sigma_s = np.eye(k)
        tracemalloc.start()
        reduced = srm.e_step_local(Ws[0], 1.0, Xhats[0])
        for i in range(1, n_subjects):
            reduced += srm.e_step_local(Ws[i], 1.0, Xhats[i])
        S, var_s = srm.e_step_global(reduced, sigma_s, float(n_subjects))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert S.shape == (k, n_trs) and var_s.shape == (k, k)
        # V x V would be 200 MB; the actual working set is a few K x T blocks
        assert peak < 4 * n_voxels * k * 8

    def test_fit_peak_below_one_subject(self):
        """The fit keeps no centered copy: its peak is under one subject's bytes."""
        import tracemalloc

        rng = np.random.default_rng(34)
        n_voxels, n_trs, k = 2000, 300, 10
        subjects = [
            SubjectData(f"s{i}", rng.normal(5.0, 1.0, (n_voxels, n_trs))) for i in range(3)
        ]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            srm.fit(subjects, srm.SrmConfig(k=k, iterations=2, seed=0), SerialCommunicator())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < n_voxels * n_trs * 8

    def test_fit_holds_only_live_arrays(self):
        """Above its inputs and the voxel means the fit holds, at its E-step
        for subject j, the N - j mappings not yet read and the tree's
        popcount(j) + 1 rows of K x T scale, and at an M-step the mappings
        made so far, A (in whose buffer the QR runs and the new mapping
        lands) and S; 64 KiB cover the rest, the M-step's K x K arrays and
        row block among them. Making every initial mapping up front,
        keeping a mapping in the list through its E-step, keeping the last
        stack row or mapping past the E-steps, scaling the V x K mapping
        instead of the K x T term, or writing the polar factor beside A
        each breaks it in at least one case: at (600, 600, 20) K T 8 and
        V K 8 bytes both exceed 64 KiB, and at (3000, 60, 10) V K 8 bytes
        exceed K T 8 bytes by more than 64 KiB."""
        n_subjects = 6
        for n_voxels, n_trs, k in [(600, 120, 10), (600, 600, 20), (3000, 60, 10)]:
            rng = np.random.default_rng(36)
            subjects = [
                SubjectData(f"s{i}", rng.standard_normal((n_voxels, n_trs))
                            + rng.standard_normal((n_voxels, 1)))
                for i in range(n_subjects)
            ]
            cfg = srm.SrmConfig(k=k, iterations=3, seed=0)
            peak = traced_peak(srm.fit, subjects, cfg, SerialCommunicator())
            mapping, row = n_voxels * k, 4 + k * n_trs
            e_steps = max((n_subjects - j) * mapping + (bin(j).count("1") + 1) * row
                          for j in range(n_subjects))
            m_steps = n_subjects * mapping + k * n_trs + 1
            doubles = max(e_steps, m_steps) + n_subjects * n_voxels
            assert peak <= doubles * 8 + 64 * 1024, (n_voxels, n_trs, k, peak)

    def test_fit_leaves_input_unchanged(self):
        """Serial and on 2 thread ranks, read-only inputs come back byte-equal."""
        matrices, _ = srm_subjects(n_subjects=4, n_voxels=30, n_trs=12, k=3, seed=35)
        before = [X.tobytes() for X in matrices]
        for X in matrices:
            X.flags.writeable = False
        subjects = [SubjectData(f"s{i}", X) for i, X in enumerate(matrices)]
        cfg = srm.SrmConfig(k=3, iterations=4, seed=1)
        srm.fit(subjects, cfg, SerialCommunicator())
        assert [s.X.tobytes() for s in subjects] == before
        fit_on_threads([subjects[:1], subjects[1:]], cfg)
        assert [s.X.tobytes() for s in subjects] == before
