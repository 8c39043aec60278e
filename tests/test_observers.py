"""Decoupled and cooperative observers: synthesis identities and error laws."""

import numpy as np
import pytest

from covacc import ProtocolError, Subsystem, UioExistenceError, design_uio, observer_gain

from reference import step_distributed, step_uio, uio_estimate


A = np.array([[0.4, 0.2], [0.0, 0.3]])
B = np.array([[0.0], [1.0]])
C2 = np.eye(2)
BLK_FULL = np.diag([0.1, -0.01])
BLK_LOW = np.array([[0.1, 0.0], [-0.1, 0.0]])


def make_sub(C=None):
    return Subsystem(index=1, A=A, B=B, C=C2 if C is None else C)


class TestDesignIdentities:
    @pytest.mark.parametrize("blocks", [[BLK_FULL, BLK_FULL], [BLK_LOW, BLK_LOW]])
    def test_algebraic_relations(self, blocks):
        sub = make_sub()
        d = design_uio(sub, blocks, target_radius=0.5)
        E = np.hstack(blocks)
        # the decoupling identity that kills the unknown coupling inputs
        np.testing.assert_allclose(d.H @ (sub.C @ E), E, atol=1e-12)
        np.testing.assert_allclose(d.T, np.eye(2) - d.H @ sub.C, atol=1e-12)
        np.testing.assert_allclose(d.T @ E, np.zeros_like(E), atol=1e-12)
        np.testing.assert_allclose(d.K2, d.F @ d.H, atol=1e-12)
        assert max(abs(np.linalg.eigvals(d.F))) < 1.0

    def test_empty_inbound_reduces_to_luenberger(self):
        sub = make_sub()
        d = design_uio(sub, [], target_radius=0.2)
        np.testing.assert_array_equal(d.H, np.zeros((2, 0 or 2)))
        np.testing.assert_array_equal(d.T, np.eye(2))
        np.testing.assert_allclose(d.F, sub.A - d.K1 @ sub.C, atol=1e-12)

    def test_existence_rejected_when_coupling_invisible(self):
        # single output row cannot see the second state coordinate the
        # coupling writes to, so no decoupling observer exists
        sub = make_sub(C=np.array([[1.0, 0.0]]))
        with pytest.raises(UioExistenceError):
            design_uio(sub, [np.array([[0.0, 0.0], [0.0, 1.0]])])

    def test_existence_accepted_when_visible(self):
        sub = make_sub(C=np.array([[1.0, 0.0]]))
        # coupling only writes the measured coordinate
        block = np.array([[0.5, 0.0], [0.0, 0.0]])
        d = design_uio(sub, [block], target_radius=0.9)
        np.testing.assert_allclose(d.T @ block, 0.0, atol=1e-12)


class TestDecoupledErrorLaw:
    def run_network(self, blocks, steps=40, attack_from=None, seed=0):
        """Two feeder nodes drive node 3; returns per-step actual errors."""
        rng = np.random.default_rng(seed)
        sub = make_sub()
        d = design_uio(sub, blocks, target_radius=0.5)
        x = rng.standard_normal(2)
        feeders = [rng.standard_normal(2), rng.standard_normal(2)]
        replica = np.zeros(2)
        z = np.zeros(2)
        errors, received_errors = [], []
        for k in range(steps):
            u = rng.standard_normal(1) * 0.1
            inj = np.array([1.0]) if attack_from is not None and k >= attack_from else np.zeros(1)
            mask = C2 @ replica
            y = C2 @ x - mask
            est = uio_estimate(d, z, y)
            errors.append(x - est)
            received_errors.append((x - replica) - est)
            z = step_uio(d, sub, z, u, y)
            x = A @ x + B @ (u + inj) + blocks[0] @ feeders[0] + blocks[1] @ feeders[1]
            replica = A @ replica + B @ inj
            feeders = [A @ f * 0.9 for f in feeders]
        return errors, received_errors

    @pytest.mark.parametrize("blocks", [[BLK_FULL, BLK_FULL], [BLK_LOW, BLK_LOW]])
    def test_error_recursion_without_attack(self, blocks):
        sub = make_sub()
        d = design_uio(sub, blocks, target_radius=0.5)
        errors, _ = self.run_network(blocks)
        for k in range(len(errors) - 1):
            np.testing.assert_allclose(errors[k + 1], d.F @ errors[k], atol=1e-12)
        assert np.linalg.norm(errors[-1]) < 1e-8

    @pytest.mark.parametrize("blocks", [[BLK_FULL, BLK_FULL], [BLK_LOW, BLK_LOW]])
    def test_received_error_recursion_under_attack(self, blocks):
        # the error against the visible state x - replica keeps obeying the
        # nominal recursion even while the injection runs
        sub = make_sub()
        d = design_uio(sub, blocks, target_radius=0.5)
        _, received = self.run_network(blocks, attack_from=15)
        for k in range(len(received) - 1):
            np.testing.assert_allclose(received[k + 1], d.F @ received[k], atol=1e-12)

    def test_attacked_estimate_tracks_visible_state(self):
        _, received = self.run_network([BLK_FULL, BLK_FULL], steps=60, attack_from=10)
        assert np.linalg.norm(received[-1]) < 1e-10

    def test_zero_error_is_invariant(self):
        # start exact: the estimate stays exact whatever the inputs do
        rng = np.random.default_rng(5)
        sub = make_sub()
        d = design_uio(sub, [BLK_FULL], target_radius=0.5)
        x = rng.standard_normal(2)
        feeder = rng.standard_normal(2)
        y = C2 @ x
        z = x - d.H @ y
        for k in range(25):
            u = rng.standard_normal(1)
            np.testing.assert_allclose(uio_estimate(d, z, y), x, atol=1e-11)
            z = step_uio(d, sub, z, u, y)
            x = A @ x + B @ u + BLK_FULL @ feeder
            feeder = rng.standard_normal(2)
            y = C2 @ x


class TestDistributedObserver:
    def test_convergence_with_true_neighbor_states(self):
        rng = np.random.default_rng(9)
        sub = make_sub()
        L = observer_gain(A, C2, 0.2)
        x = rng.standard_normal(2)
        nbr = rng.standard_normal(2)
        xhat = np.zeros(2)
        for k in range(40):
            u = rng.standard_normal(1) * 0.1
            y = C2 @ x
            xhat = step_distributed(sub, L, xhat, u, y, {2: BLK_FULL}, {2: nbr})
            x = A @ x + B @ u + BLK_FULL @ nbr
            nbr = 0.8 * nbr
        assert np.linalg.norm(x - xhat) < 1e-8

    def test_error_recursion_driven_by_neighbor_error(self):
        # feeding an estimate that is off by delta injects coupling @ delta
        # into the error recursion, nothing else
        sub = make_sub()
        L = observer_gain(A, C2, 0.2)
        x = np.array([0.3, -0.2])
        nbr = np.array([1.0, 2.0])
        delta = np.array([0.05, -0.01])
        xhat = np.array([0.1, 0.1])
        err = x - xhat
        u = np.array([0.4])
        y = C2 @ x
        xhat_next = step_distributed(sub, L, xhat, u, y, {2: BLK_FULL}, {2: nbr - delta})
        x_next = A @ x + B @ u + BLK_FULL @ nbr
        expected = (A - L @ C2) @ err + BLK_FULL @ delta
        np.testing.assert_allclose(x_next - xhat_next, expected, atol=1e-12)

    def test_missing_neighbor_estimate_is_a_protocol_error(self):
        sub = make_sub()
        L = observer_gain(A, C2, 0.2)
        with pytest.raises(ProtocolError):
            step_distributed(sub, L, np.zeros(2), np.zeros(1), np.zeros(2), {2: BLK_FULL}, {})


class TestAlarmRolesInTrace:
    """End-to-end observer behavior on the bundled scenario traces."""

    def test_victim_never_sees_its_own_attack(self, fullrank_trace):
        theta = fullrank_trace.thresholds[3]
        resid = [float(v) for v in fullrank_trace.series(3, "resid_coop")]
        assert max(resid) < theta

    def test_neighbors_fire_shortly_after_onset(self, fullrank_trace):
        theta1 = fullrank_trace.thresholds[1]
        resid1 = [float(v) for v in fullrank_trace.series(1, "resid_coop")]
        onset = 20
        assert all(r <= theta1 for r in resid1[:onset + 1])
        first = next(k for k, r in enumerate(resid1) if r > theta1)
        assert onset < first <= onset + 10
