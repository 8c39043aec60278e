"""Replica-state recovery, window inversion, and the corrected control law."""

import numpy as np
import pytest

from covacc import (
    ConfigurationError,
    ProtocolError,
    SynthesisError,
    Topology,
    build_ls_estimator,
    build_reconstructor,
    kernel_and_projection,
    neighbor_cancellation_gains,
    pseudo_inverse,
)

from reference import (
    AccommodationState,
    accommodated_control,
    ls_estimate,
    merge_kernel_component,
    reconstruct_input,
)


A = np.array([[0.4, 0.2], [0.0, 0.3]])
B = np.array([[0.0], [1.0]])
BLK_FULL = np.diag([0.1, -0.01])
BLK_LOW = np.array([[0.1, 0.0], [-0.1, 0.0]])


def two_watcher_topology(block):
    """Nodes 1 and 2 both watch node 3."""
    return Topology(
        3,
        {1: (3,), 2: (3,), 3: ()},
        {(1, 3): block, (2, 3): block},
    )


def replica_trajectory(signal, steps):
    """States x(0..steps) of the replica under the given input sequence."""
    xs = [np.zeros(2)]
    for k in range(steps):
        xs.append(A @ xs[-1] + B @ np.atleast_1d(signal(k)))
    return xs


class TestLsEstimator:
    def test_full_rank_exact_recovery(self):
        topo = two_watcher_topology(BLK_FULL)
        est = build_ls_estimator(topo, 3, 2)
        assert est.regime == "full"
        assert est.sources == (1, 2)
        truth = np.array([0.7, -1.3])
        payloads = {1: BLK_FULL @ truth, 2: BLK_FULL @ truth}
        np.testing.assert_allclose(ls_estimate(est, payloads), truth, atol=1e-12)

    def test_low_rank_recovers_projection_with_zero_kernel_part(self):
        topo = two_watcher_topology(BLK_LOW)
        est = build_ls_estimator(topo, 3, 2)
        assert est.regime == "low"
        truth = np.array([0.7, -1.3])
        payloads = {1: BLK_LOW @ truth, 2: BLK_LOW @ truth}
        out = ls_estimate(est, payloads)
        P, N = est.projection.interacting_map, est.projection.kernel_basis
        np.testing.assert_allclose(P @ out, P @ truth, atol=1e-12)
        # minimum-norm solution leaves the unobserved direction at zero
        np.testing.assert_allclose(N.T @ out, 0.0, atol=1e-12)

    def test_missing_source_is_protocol_error(self):
        est = build_ls_estimator(two_watcher_topology(BLK_FULL), 3, 2)
        with pytest.raises(ProtocolError, match="source node 2"):
            ls_estimate(est, {1: np.zeros(2)})

    def test_unwatched_node_estimates_zero(self):
        topo = two_watcher_topology(BLK_FULL)
        est = build_ls_estimator(topo, 1, 2)  # nobody watches node 1
        assert est.sources == ()
        np.testing.assert_array_equal(ls_estimate(est, {}), np.zeros(2))

    def test_trace_estimate_lags_replica_by_one(self, fullrank_trace):
        tr = fullrank_trace
        kd = tr.decision_steps[3]
        xa = tr.series(3, "xa")
        ls = tr.series(3, "xa_ls")
        for k in range(kd + 2, tr.horizon):
            np.testing.assert_allclose(ls[k], xa[k - 1], atol=1e-6)

    def test_trace_low_rank_projected_exact_kernel_zero(self, lowrank_trace):
        tr = lowrank_trace
        kd = tr.decision_steps[3]
        xa = tr.series(3, "xa")
        ls = tr.series(3, "xa_ls")
        P = np.array([[1.0, 0.0]])
        N = np.array([[0.0], [1.0]])
        for k in range(kd + 2, tr.horizon):
            np.testing.assert_allclose(P @ ls[k], P @ xa[k - 1], atol=1e-6)
            np.testing.assert_allclose(N.T @ ls[k], 0.0, atol=1e-10)


class TestBuildReconstructor:
    def test_full_rank_reference_model(self):
        proj = kernel_and_projection(np.vstack([BLK_FULL, BLK_FULL]))
        recon = build_reconstructor(A, B, proj)
        assert recon.window == 2
        assert sorted(recon.rel_degree) == [1, 2]
        assert recon.output_delay == 2
        assert recon.input_offset == 0

    def test_low_rank_reference_model(self):
        proj = kernel_and_projection(np.vstack([BLK_LOW, BLK_LOW]))
        recon = build_reconstructor(A, B, proj)
        assert recon.rel_degree == (2,)
        assert recon.output_delay == 2
        assert recon.input_offset == 1  # one kernel coordinate precedes the inputs

    def test_square_input_map_has_unit_delays(self):
        proj = kernel_and_projection(np.eye(2))
        recon = build_reconstructor(A, np.eye(2), proj)
        assert recon.rel_degree == (1, 1)
        assert recon.output_delay == 1

    def test_unresponsive_input_rejected(self):
        proj = kernel_and_projection(np.eye(2))
        with pytest.raises(SynthesisError, match="never reacts"):
            build_reconstructor(A, np.zeros((2, 1)), proj)

    @pytest.mark.parametrize("topo", [
        Topology(2, {1: (), 2: (1,)}, {(2, 1): BLK_FULL}),
        Topology(2, {1: (2,), 2: (1,)}, {(1, 2): np.zeros((2, 2)), (2, 1): BLK_FULL}),
    ], ids=["no_outbound_edge", "zero_outbound_block"])
    def test_unwitnessed_target_rejected(self, topo):
        # nobody receives node 2's state, or only through a zero block
        est = build_ls_estimator(topo, 2, 2)
        assert est.projection.kernel_dim == 2
        with pytest.raises(SynthesisError, match="no nonzero row"):
            build_reconstructor(A, B, est.projection)

    def test_window_below_state_dimension_rejected(self):
        proj = kernel_and_projection(np.eye(2))
        with pytest.raises(ConfigurationError, match="window"):
            build_reconstructor(A, B, proj, window=1)

    def test_visible_invariant_zero_rejected(self):
        # the observed combination y = x1 - 2 x2 with both states driven
        # equally has a transmission zero at 0.7, which is not a plant
        # eigenvalue: the input history is fundamentally ambiguous
        Az = np.diag([0.5, 0.3])
        Bz = np.array([[1.0], [1.0]])
        proj = kernel_and_projection(np.array([[1.0, -2.0]]))
        with pytest.raises(SynthesisError, match="invariant zero"):
            build_reconstructor(Az, Bz, proj)

    def test_hidden_invariant_zero_is_fine(self):
        # same plant, but the zero direction is not observed
        Az = np.diag([0.5, 0.3])
        Bz = np.array([[1.0], [1.0]])
        proj = kernel_and_projection(np.array([[1.0, 0.0]]))
        recon = build_reconstructor(Az, Bz, proj)
        assert recon.window == 2

    def test_more_observed_rows_than_inputs(self):
        # two observed rows, one input and one hidden direction: the
        # invariant-zero check takes its non-square rank probe
        A3 = np.array([[0.4, 0.2, 0.0], [0.0, 0.3, 0.1], [0.0, 0.0, 0.2]])
        B3 = np.array([[0.0], [0.0], [1.0]])
        proj = kernel_and_projection(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert (proj.interacting_map.shape[0], B3.shape[1], proj.kernel_dim) == (2, 1, 1)
        recon = build_reconstructor(A3, B3, proj)
        assert recon.window == 3
        assert recon.rel_degree == (3, 2)
        assert recon.output_delay == 3

    def test_longer_window_accepted(self):
        proj = kernel_and_projection(np.vstack([BLK_LOW, BLK_LOW]))
        recon = build_reconstructor(A, B, proj, window=4)
        assert recon.window == 4
        assert recon.input_offset == 1 + (4 - 2) * 1


class TestReconstructInput:
    @pytest.mark.parametrize("block", [BLK_FULL, BLK_LOW])
    def test_warmup_returns_not_ready(self, block):
        proj = kernel_and_projection(np.vstack([block, block]))
        recon = build_reconstructor(A, B, proj)
        for count in range(recon.window + 1):
            est, ready = reconstruct_input(recon, [np.zeros(2)] * count)
            assert not ready
            np.testing.assert_array_equal(est, np.zeros(1))

    @pytest.mark.parametrize("block", [BLK_FULL, BLK_LOW])
    def test_constant_input_recovered(self, block):
        proj = kernel_and_projection(np.vstack([block, block]))
        recon = build_reconstructor(A, B, proj)
        xs = replica_trajectory(lambda k: 1.0, 12)
        # any window+1 consecutive states pin down the input that advanced
        # the oldest of them
        for start in range(0, 9):
            est, ready = reconstruct_input(recon, xs[start:start + 3])
            assert ready
            np.testing.assert_allclose(est, [1.0], atol=1e-9)

    @pytest.mark.parametrize("block", [BLK_FULL, BLK_LOW])
    def test_varying_input_recovered_with_fixed_delay(self, block):
        proj = kernel_and_projection(np.vstack([block, block]))
        recon = build_reconstructor(A, B, proj)
        sig = lambda k: 0.3 + 0.1 * k - 0.002 * k * k
        xs = replica_trajectory(sig, 20)
        for start in range(0, 17):
            est, ready = reconstruct_input(recon, xs[start:start + 3])
            assert ready
            np.testing.assert_allclose(est, [sig(start)], atol=1e-9)

    def test_zero_input_recovered_as_zero(self):
        proj = kernel_and_projection(np.vstack([BLK_FULL, BLK_FULL]))
        recon = build_reconstructor(A, B, proj)
        est, ready = reconstruct_input(recon, [np.zeros(2)] * 3)
        assert ready
        np.testing.assert_allclose(est, [0.0], atol=1e-12)

    def test_kernel_noise_in_samples_is_ignored_low_rank(self):
        # the low-rank solver must only consume the interacting part: salt
        # the samples with arbitrary kernel components and recover the same
        proj = kernel_and_projection(np.vstack([BLK_LOW, BLK_LOW]))
        recon = build_reconstructor(A, B, proj)
        xs = replica_trajectory(lambda k: 1.0, 6)
        rng = np.random.default_rng(2)
        N = proj.kernel_basis
        salted = [x + N @ rng.standard_normal(1) for x in xs[0:3]]
        est, ready = reconstruct_input(recon, salted)
        assert ready
        np.testing.assert_allclose(est, [1.0], atol=1e-9)

    def test_trace_reconstruction_lags_injection_by_three(self, lowrank_trace):
        tr = lowrank_trace
        phase = [int(v) for v in tr.series(3, "phase")]
        kw = phase.index(2)
        inj = tr.series(3, "inj")
        inj_hat = tr.series(3, "inj_hat")
        for k in range(kw, tr.horizon):
            np.testing.assert_allclose(inj_hat[k], inj[k - 3], atol=1e-6)


class TestForwardKernelModel:
    def test_merge_full_rank_passthrough(self):
        proj = kernel_and_projection(np.vstack([BLK_FULL, BLK_FULL]))
        ls = np.array([0.3, 0.4])
        out = merge_kernel_component(proj, ls, np.array([9.0, 9.0]))
        np.testing.assert_array_equal(out, ls)
        out[0] = -1.0
        assert ls[0] == 0.3  # merge returned a copy

    def test_merge_low_rank_combines_sources(self):
        proj = kernel_and_projection(np.vstack([BLK_LOW, BLK_LOW]))
        ls = np.array([0.3, 0.0])
        fwd = np.array([7.0, 2.5])
        out = merge_kernel_component(proj, ls, fwd)
        # first coordinate is interacting, second is hidden
        np.testing.assert_allclose(out, [0.3, 2.5], atol=1e-12)

    def test_trace_forward_error_contracts_like_the_plant(self, lowrank_trace):
        tr = lowrank_trace
        phase = [int(v) for v in tr.series(3, "phase")]
        kw = phase.index(2)
        xa = tr.series(3, "xa")
        fwd = tr.series(3, "xa_fwd")
        errs = [fwd[k] - xa[k - 2] for k in range(kw, tr.horizon)]
        for t in range(len(errs) - 1):
            np.testing.assert_allclose(errs[t + 1], A @ errs[t], atol=1e-10)
        assert np.linalg.norm(errs[-1]) < 1e-12


class TestControlLaw:
    def test_cancellation_gains(self):
        gains = neighbor_cancellation_gains(B, {2: BLK_FULL})
        np.testing.assert_allclose(gains[2], -(pseudo_inverse(B) @ BLK_FULL), atol=1e-14)
        # a coupling inside the actuator range cancels exactly
        row = np.array([[0.3, -0.2]])
        coupling = B @ row
        g = neighbor_cancellation_gains(B, {2: coupling})[2]
        x = np.array([1.7, -0.4])
        np.testing.assert_allclose(B @ (g @ x) + coupling @ x, 0.0, atol=1e-12)

    def test_law_assembles_all_terms(self):
        K = np.array([[0.1, -0.2]])
        gains = {2: np.array([[0.0, 0.05]])}
        xhat = np.array([1.0, 2.0])
        replica = np.array([0.5, -0.5])
        nbr = {2: np.array([4.0, 8.0])}
        inj_hat = np.array([0.25])
        u = accommodated_control(K, gains, xhat, replica, nbr, inj_hat)
        expected = K @ (xhat + replica) + gains[2] @ nbr[2] - inj_hat
        np.testing.assert_allclose(u, expected, atol=1e-14)

    def test_inactive_terms_reduce_to_nominal(self):
        K = np.array([[0.1, -0.2]])
        u = accommodated_control(K, {}, np.array([1.0, 2.0]), np.zeros(2), {}, np.zeros(1))
        np.testing.assert_allclose(u, K @ np.array([1.0, 2.0]), atol=1e-14)

    def test_missing_neighbor_estimate_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            accommodated_control(
                np.zeros((1, 2)), {2: np.zeros((1, 2))}, np.zeros(2), np.zeros(2), {}, np.zeros(1)
            )


class TestAccommodationState:
    def test_gap_in_step_tags_clears_buffer(self):
        st = AccommodationState()
        st.push_sample(5, np.ones(2), capacity=3)
        st.push_sample(6, np.ones(2), capacity=3)
        st.push_sample(8, np.ones(2), capacity=3)  # gap: 7 missing
        assert [tag for tag, _ in st.samples] == [8]

    def test_capacity_trims_oldest(self):
        st = AccommodationState()
        for k in range(5):
            st.push_sample(k, np.full(2, float(k)), capacity=3)
        assert [tag for tag, _ in st.samples] == [2, 3, 4]
