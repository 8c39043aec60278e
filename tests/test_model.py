"""Plant, topology, and injector mechanics."""

import numpy as np
import pytest

from covacc import ConfigurationError, Subsystem, Topology

from reference import AttackerState, measured_output, step_attacker, step_plant


A = np.array([[0.4, 0.2], [0.0, 0.3]])
B = np.array([[0.0], [1.0]])
C2 = np.eye(2)


def make_ring(n_nodes, block):
    """Symmetric ring: every node coupled to both cyclic neighbors."""
    neighbors = {
        i: ((i - 2) % n_nodes + 1, i % n_nodes + 1) for i in range(1, n_nodes + 1)
    }
    coupling = {(i, j): block for i in neighbors for j in neighbors[i]}
    return Topology(n_nodes=n_nodes, neighbors=neighbors, coupling=coupling)


def five_node_topology(block):
    neighbors = {1: (2, 3), 2: (1, 3, 4), 3: (1, 2), 4: (1, 2, 5), 5: (4,)}
    coupling = {(i, j): block for i in neighbors for j in neighbors[i]}
    return Topology(n_nodes=5, neighbors=neighbors, coupling=coupling)


class TestSubsystem:
    def test_defaults_and_dims(self):
        sub = Subsystem(index=1, A=A, B=B, C=C2)
        assert (sub.n, sub.m, sub.p) == (2, 1, 2)
        np.testing.assert_array_equal(sub.x0, np.zeros(2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Subsystem(index=1, A=A, B=np.zeros((3, 1)), C=C2)
        with pytest.raises(ConfigurationError):
            Subsystem(index=1, A=A, B=B, C=np.zeros((2, 3)))
        with pytest.raises(ConfigurationError):
            Subsystem(index=1, A=A, B=B, C=C2, x0=[1.0, 2.0, 3.0])


class TestTopology:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="self-loop"):
            Topology(2, {1: (1,), 2: ()}, {(1, 1): A})
        with pytest.raises(ConfigurationError, match="duplicate"):
            Topology(2, {1: (2, 2), 2: ()}, {(1, 2): A})
        with pytest.raises(ConfigurationError, match="missing"):
            Topology(3, {1: (2,), 2: (1,)}, {(1, 2): A, (2, 1): A})
        with pytest.raises(ConfigurationError, match="no block"):
            Topology(2, {1: (2,), 2: ()}, {})
        with pytest.raises(ConfigurationError, match="not an edge"):
            Topology(2, {1: (), 2: ()}, {(1, 2): A})
        # a neighbour is a node number, not truncated to one
        with pytest.raises(ConfigurationError, match=r"^topology\.neighbors\[1\]: expected a finite int, got 2\.7"):
            Topology(3, {1: (2.7,), 2: (), 3: ()}, {(1, 2): A})

    def test_sources_is_reverse_of_inbound(self):
        topo = five_node_topology(np.diag([0.1, -0.01]))
        assert topo.inbound(3) == (1, 2)
        assert topo.sources(3) == (1, 2)
        # the asymmetric pair: node 4 listens to 1, but 1 does not listen to 4
        assert 1 in topo.inbound(4)
        assert 4 not in topo.inbound(1)
        assert topo.sources(1) == (2, 3, 4)
        assert topo.one_way_pairs() == [(4, 1)]

    def test_outbound_stack_order_and_empty(self):
        b1 = np.array([[1.0, 0.0], [0.0, 2.0]])
        b2 = np.array([[3.0, 0.0], [0.0, 4.0]])
        topo = Topology(
            3,
            {1: (3,), 2: (3,), 3: ()},
            {(1, 3): b1, (2, 3): b2},
        )
        stack = topo.outbound_stack(3, 2)
        np.testing.assert_array_equal(stack, np.vstack([b1, b2]))
        # nobody listens to node 1
        assert topo.outbound_stack(1, 2).shape == (0, 2)


class TestStepPlant:
    def test_single_node_no_coupling(self):
        sub = Subsystem(index=1, A=A, B=B, C=C2)
        topo = Topology(1, {1: ()}, {})
        nxt = step_plant({1: sub}, topo, {1: np.array([1.0, 1.0])}, {1: np.zeros(1)})
        np.testing.assert_allclose(nxt[1], [0.6, 0.3], atol=1e-15)

    def test_origin_is_a_fixed_point(self):
        subs = {i: Subsystem(index=i, A=A, B=B, C=C2) for i in range(1, 6)}
        topo = five_node_topology(np.diag([0.1, -0.01]))
        states = {i: np.zeros(2) for i in subs}
        nxt = step_plant(subs, topo, states, {i: np.zeros(1) for i in subs})
        for i in subs:
            np.testing.assert_array_equal(nxt[i], np.zeros(2))

    def test_matches_stacked_global_system(self):
        # independent oracle: build the block-structured global transition
        # matrix and compare trajectories over 20 steps
        rng = np.random.default_rng(42)
        n, m, nodes = 2, 1, 5
        subs = {i: Subsystem(index=i, A=A, B=B, C=C2) for i in range(1, nodes + 1)}
        topo = five_node_topology(np.array([[0.1, 0.0], [-0.1, 0.0]]))

        G = np.zeros((n * nodes, n * nodes))
        Bg = np.zeros((n * nodes, m * nodes))
        for i in range(1, nodes + 1):
            r = (i - 1) * n
            G[r : r + n, r : r + n] = A
            Bg[r : r + n, (i - 1) * m : i * m] = B
            for j in topo.inbound(i):
                c = (j - 1) * n
                G[r : r + n, c : c + n] = topo.coupling[(i, j)]

        states = {i: rng.standard_normal(n) for i in subs}
        xg = np.concatenate([states[i] for i in sorted(subs)])
        for _ in range(20):
            inputs = {i: rng.standard_normal(m) for i in subs}
            ug = np.concatenate([inputs[i] for i in sorted(subs)])
            states = step_plant(subs, topo, states, inputs)
            xg = G @ xg + Bg @ ug
            flat = np.concatenate([states[i] for i in sorted(subs)])
            np.testing.assert_allclose(flat, xg, atol=1e-12)


class TestStepAttacker:
    def make(self, onset=5):
        return AttackerState(
            model=Subsystem(index=3, A=A, B=B, C=C2), onset=onset, signal=lambda k: np.array([1.0])
        )

    def test_before_onset_passthrough(self):
        atk = self.make(onset=5)
        u = np.array([0.7])
        mask = atk.output_mask()
        applied, state = step_attacker(atk, u, 4)
        np.testing.assert_array_equal(applied, u)
        np.testing.assert_array_equal(mask, np.zeros(2))
        np.testing.assert_array_equal(state, np.zeros(2))

    def test_at_onset(self):
        atk = self.make(onset=5)
        mask = atk.output_mask()
        applied, state = step_attacker(atk, np.array([0.7]), 5)
        np.testing.assert_allclose(applied, [1.7])
        np.testing.assert_array_equal(mask, np.zeros(2))  # replica starts at rest
        np.testing.assert_allclose(state, [0.0, 1.0])  # B @ 1

    def test_replica_reaches_geometric_limit(self):
        atk = self.make(onset=0)
        for k in range(200):
            _, atk.state = step_attacker(atk, np.zeros(1), k)
        limit = np.linalg.solve(np.eye(2) - A, B @ np.array([1.0]))
        np.testing.assert_allclose(atk.state, limit, atol=1e-12)
        np.testing.assert_allclose(limit, [10.0 / 21.0, 10.0 / 7.0], atol=1e-12)

    def test_injected_zero_before_onset(self):
        atk = self.make(onset=10)
        np.testing.assert_array_equal(atk.injected(9), np.zeros(1))
        np.testing.assert_allclose(atk.injected(10), [1.0])


class TestMeasuredOutput:
    def test_plain(self):
        sub = Subsystem(index=1, A=A, B=B, C=np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(measured_output(sub, [2.0, 5.0]), [2.0])

    def test_mask_subtracted(self):
        sub = Subsystem(index=1, A=A, B=B, C=C2)
        y = measured_output(sub, [2.0, 5.0], output_mask=[0.5, 0.5])
        np.testing.assert_allclose(y, [1.5, 4.5])


class TestCovertness:
    """The masked measurement of the victim is indistinguishable from a twin
    fed the same command and the same (attacked-run) neighbor states."""

    def test_replay_twin_open_loop(self):
        rng = np.random.default_rng(3)
        subs = {i: Subsystem(index=i, A=A, B=B, C=C2) for i in range(1, 6)}
        topo = five_node_topology(np.diag([0.1, -0.01]))
        atk = AttackerState(
            model=subs[3], onset=10, signal=lambda k: np.array([np.sin(0.2 * k) + 1.0])
        )
        states = {i: rng.standard_normal(2) * 0.1 for i in subs}
        twin = states[3].copy()
        for k in range(60):
            cmds = {i: rng.standard_normal(1) * 0.05 for i in subs}
            mask = atk.output_mask()
            applied, nxt_replica = step_attacker(atk, cmds[3], k)
            y3 = measured_output(subs[3], states[3], output_mask=mask)
            y_twin = measured_output(subs[3], twin)
            np.testing.assert_allclose(y3, y_twin, atol=1e-9)
            # advance the twin on recorded neighbor states and the commanded input
            t = A @ twin + B @ cmds[3]
            for j in topo.inbound(3):
                t = t + topo.coupling[(3, j)] @ states[j]
            inputs = dict(cmds)
            inputs[3] = applied
            states = step_plant(subs, topo, states, inputs)
            atk.state = nxt_replica
            twin = t

    def test_injection_response_superposes(self):
        # attacked minus nominal trajectory equals the zero-state response
        # to the injection alone, by linearity
        subs = {i: Subsystem(index=i, A=A, B=B, C=C2) for i in range(1, 6)}
        topo = five_node_topology(np.array([[0.1, 0.0], [-0.1, 0.0]]))
        rng = np.random.default_rng(11)
        x_att = {i: rng.standard_normal(2) for i in subs}
        x_nom = {i: x_att[i].copy() for i in subs}
        x_rsp = {i: np.zeros(2) for i in subs}
        for k in range(30):
            cmds = {i: rng.standard_normal(1) for i in subs}
            inj = np.array([0.5]) if k >= 8 else np.zeros(1)
            att_in = dict(cmds)
            att_in[3] = cmds[3] + inj
            rsp_in = {i: np.zeros(1) for i in subs}
            rsp_in[3] = inj
            x_att = step_plant(subs, topo, x_att, att_in)
            x_nom = step_plant(subs, topo, x_nom, cmds)
            x_rsp = step_plant(subs, topo, x_rsp, rsp_in)
            for i in subs:
                np.testing.assert_allclose(x_att[i] - x_nom[i], x_rsp[i], atol=1e-12)
