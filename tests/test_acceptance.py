"""End-to-end acceptance checks on the two reference scenarios.

Each test prints one PASS line with the measured quantity so a verbose run
doubles as a measurement report.  The traces come from the session fixtures;
tests must not mutate them.
"""

import dataclasses
import json
import time
from importlib import resources

import numpy as np
import pytest

from covacc import (
    build_ls_estimator,
    kernel_and_projection,
    load_scenario,
    pseudo_inverse,
    run,
    spectral_radius,
    stabilizing_gain,
)

from reference import AlarmSignal, blind, decide_attack, ls_estimate, step_uio, uio_estimate


A_REF = np.array([[0.4, 0.2], [0.0, 0.3]])


def bundled_doc(name):
    text = resources.files("covacc").joinpath(f"scenarios/{name}.json").read_text()
    return json.loads(text)


def received_loc_errors(trace, node):
    """Per-step decoupled-observer error against the visible state."""
    x = trace.series(node, "x")
    xa = trace.series(node, "xa")
    xh = trace.series(node, "xhat_loc")
    return [x[k] - xa[k] - xh[k] for k in range(trace.horizon)]


def first_active_step(trace, node):
    phase = [int(v) for v in trace.series(node, "phase")]
    return phase.index(2)


class TestCovertness:
    def test_criterion_1_masked_outputs_match_nominal_twin(self, fullrank_config):
        t0 = time.monotonic()
        trace = run(blind(fullrank_config))
        elapsed = time.monotonic() - t0

        cfg = fullrank_config
        topo = cfg.topology
        sub3 = cfg.subsystems[3]
        ymeas = trace.series(3, "ymeas")
        u3 = trace.series(3, "u")
        xs = {j: trace.series(j, "x") for j in topo.inbound(3)}
        twin = sub3.x0.copy()
        worst = 0.0
        for k in range(trace.horizon):
            worst = max(worst, float(np.max(np.abs(ymeas[k] - sub3.C @ twin))))
            t = sub3.A @ twin + sub3.B @ u3[k]
            for j in topo.inbound(3):
                t = t + topo.coupling[(3, j)] @ xs[j][k]
            twin = t
        assert worst <= 1e-9
        assert elapsed < 1.0
        print(f"PASS criterion 1: max masked-output deviation {worst:.3e}, runtime {elapsed:.3f}s")


class TestDecoupledErrorRecursions:
    def test_criterion_2_received_error_follows_stable_recursion(
        self,
        fullrank_trace,
        lowrank_trace,
        attack_free_trace,
        attack_free_lowrank_trace,
        fullrank_config,
    ):
        worst = 0.0
        for trace in (fullrank_trace, lowrank_trace, attack_free_trace, attack_free_lowrank_trace):
            for i in range(1, 6):
                F = trace.designs[i].uio.F
                eps = received_loc_errors(trace, i)
                for k in range(trace.horizon - 1):
                    worst = max(worst, float(np.linalg.norm(eps[k + 1] - F @ eps[k])))
        assert worst <= 1e-12

        # the reference runs start at rest; rerun attack-free from a nonzero
        # state so the recursion is exercised with a live transient (the
        # low-rank coupling keeps the initial error nonzero: with full-rank
        # couplings and identity measurements the observer starts exact)
        doc = bundled_doc("five_node_lowrank")
        del doc["attack"]
        for idx, sub in enumerate(doc["subsystems"]):
            sub["x0"] = [0.4 - 0.1 * idx, -0.3 + 0.1 * idx]
        with pytest.warns(RuntimeWarning):
            cfg = load_scenario(doc)
        moving = run(blind(cfg))
        worst_moving = 0.0
        for i in range(1, 6):
            F = moving.designs[i].uio.F
            eps = received_loc_errors(moving, i)
            assert np.linalg.norm(eps[0]) > 1e-2  # transient actually present
            for k in range(moving.horizon - 1):
                worst_moving = max(worst_moving, float(np.linalg.norm(eps[k + 1] - F @ eps[k])))
        assert worst_moving <= 1e-12
        print(
            f"PASS criterion 2: recursion residual {worst:.3e} (reference runs), "
            f"{worst_moving:.3e} (nonzero start)"
        )


class TestCooperativeErrorRecursion:
    def test_criterion_3_coupled_recursion_and_victim_stealth(
        self, fullrank_trace, lowrank_trace
    ):
        worst = 0.0
        for trace in (fullrank_trace, lowrank_trace):
            topo = trace.config.topology
            xs = {i: trace.series(i, "x") for i in range(1, 6)}
            xas = {i: trace.series(i, "xa") for i in range(1, 6)}
            xh_loc = {i: trace.series(i, "xhat_loc") for i in range(1, 6)}
            xh_coop = {i: trace.series(i, "xhat_coop") for i in range(1, 6)}
            for i in range(1, 6):
                Fc = trace.designs[i].coop_transition
                errc = [xs[i][k] - xas[i][k] - xh_coop[i][k] for k in range(trace.horizon)]
                for k in range(trace.horizon - 1):
                    drive = np.zeros(2)
                    for j in topo.inbound(i):
                        drive = drive + topo.coupling[(i, j)] @ (xs[j][k] - xh_loc[j][k])
                    res = errc[k + 1] - Fc @ errc[k] - drive
                    worst = max(worst, float(np.linalg.norm(res)))
        assert worst <= 1e-12

        stealth = {}
        for name, trace in (("full", fullrank_trace), ("low", lowrank_trace)):
            peak = max(float(v) for v in trace.series(3, "resid_coop"))
            assert peak < trace.thresholds[3]
            stealth[name] = (peak, trace.thresholds[3])
        print(
            f"PASS criterion 3: recursion residual {worst:.3e}; victim residual "
            f"{stealth['full'][0]:.3e} < {stealth['full'][1]:.3e} (full), "
            f"{stealth['low'][0]:.3e} < {stealth['low'][1]:.3e} (low)"
        )


class TestDetection:
    def test_criterion_4_timely_isolated_decision_no_false_alarms(
        self, fullrank_trace, lowrank_trace, attack_free_long_trace
    ):
        onset = 20
        steps = {}
        for name, trace in (("full", fullrank_trace), ("low", lowrank_trace)):
            kd = trace.decision_steps[3]
            assert kd is not None and 0 < kd - onset <= 15
            for i in (1, 2, 4, 5):
                assert trace.decision_steps[i] is None
            steps[name] = kd

        long_run = attack_free_long_trace
        assert long_run.horizon == 500
        total_alarms = sum(
            int(v) for i in range(1, 6) for v in long_run.series(i, "alarm_on")
        )
        assert total_alarms == 0
        assert all(s is None for s in long_run.decision_steps.values())
        print(
            f"PASS criterion 4: decision at step {steps['full']} (full) / {steps['low']} (low) "
            f"for onset {onset}; 0 alarms over 500 attack-free steps"
        )


class TestFullRankEstimationLag:
    def test_criterion_5_one_step_state_lag_and_three_step_input_lag(self, fullrank_trace):
        trace = fullrank_trace
        kd = trace.decision_steps[3]
        kw = first_active_step(trace, 3)
        xa = trace.series(3, "xa")
        ls = trace.series(3, "xa_ls")
        pub = trace.series(3, "xa_pub")
        inj = trace.series(3, "inj")
        inj_hat = trace.series(3, "inj_hat")

        worst_ls = max(
            float(np.linalg.norm(ls[k] - xa[k - 1])) for k in range(kd + 2, trace.horizon)
        )
        worst_pub = max(
            float(np.linalg.norm(pub[k] - xa[k - 1])) for k in range(kw, trace.horizon)
        )
        worst_inj = max(
            float(np.max(np.abs(inj_hat[k] - inj[k - 3]))) for k in range(kw, trace.horizon)
        )
        assert worst_ls <= 1e-6
        assert worst_pub <= 1e-6
        assert worst_inj <= 1e-6
        print(
            f"PASS criterion 5: state lag-1 error {worst_pub:.3e}, "
            f"input lag-3 error {worst_inj:.3e} (active from step {kw})"
        )


class TestExactCompensation:
    @staticmethod
    def nominal_twin_distance(trace):
        """Replay twin of node 3: nominal law, recorded neighbor signals.

        The twin runs its own plant copy and its own decoupled observer,
        applies the nominal control law (feedback on its own estimate plus
        the recorded neighbor-estimate feedforward), and receives the
        recorded coupling inflow.  Distance to the attacked, accommodated
        node shows what the accommodation failed to cancel.
        """
        cfg = trace.config
        topo = cfg.topology
        sub = cfg.subsystems[3]
        d = trace.designs[3]
        xs = {j: trace.series(j, "x") for j in topo.inbound(3)}
        xh_loc = {j: trace.series(j, "xhat_loc") for j in range(1, 6)}
        x3 = trace.series(3, "x")

        twin = sub.x0.copy()
        z = np.zeros(2)
        dist = []
        for k in range(trace.horizon):
            dist.append(float(np.linalg.norm(x3[k] - twin)))
            y = sub.C @ twin
            est = uio_estimate(d.uio, z, y)
            u = d.feedback_gain @ est
            for j in sorted(d.neighbor_gains):
                u = u + d.neighbor_gains[j] @ xh_loc[j][k]
            z = step_uio(d.uio, sub, z, u, y)
            t = sub.A @ twin + sub.B @ u
            for j in topo.inbound(3):
                t = t + topo.coupling[(3, j)] @ xs[j][k]
            twin = t
        return dist

    def test_criterion_6_accommodated_state_reaches_nominal(
        self, fullrank_trace, lowrank_trace
    ):
        report = {}
        for name, trace in (("full", fullrank_trace), ("low", lowrank_trace)):
            kd = trace.decision_steps[3]
            dist = self.nominal_twin_distance(trace)
            at_40 = dist[kd + 40]
            at_end = dist[trace.horizon - 1]
            assert at_40 <= 1e-4
            assert at_end <= 1e-6
            report[name] = (at_40, at_end)
        print(
            "PASS criterion 6: twin distance "
            f"{report['full'][0]:.3e} at detection+40 and {report['full'][1]:.3e} at the "
            f"final step (full); {report['low'][0]:.3e} and {report['low'][1]:.3e} (low)"
        )


class TestLowRankRegime:
    def test_criterion_7_hidden_direction_recovered_by_forward_model(
        self, fullrank_trace, lowrank_trace
    ):
        trace = lowrank_trace
        proj = trace.designs[3].ls.projection
        assert proj.kernel_dim == 1
        np.testing.assert_allclose(np.abs(proj.kernel_basis.ravel()), [0.0, 1.0], atol=1e-12)

        kw = first_active_step(trace, 3)
        xa = trace.series(3, "xa")
        pub = trace.series(3, "xa_pub")
        fwd = trace.series(3, "xa_fwd")
        P = proj.interacting_map

        worst_proj = max(
            float(np.linalg.norm(P @ pub[k] - P @ xa[k - 1])) for k in range(kw, trace.horizon)
        )
        assert worst_proj <= 1e-6

        # forward-model error: exact plant recursion, spectral-rate envelope
        errs = [fwd[k] - xa[k - 2] for k in range(kw, trace.horizon)]
        worst_rec = max(
            float(np.linalg.norm(errs[t + 1] - A_REF @ errs[t])) for t in range(len(errs) - 1)
        )
        assert worst_rec <= 1e-10
        _, V = np.linalg.eig(A_REF)
        kappa = np.linalg.cond(V)
        rho = spectral_radius(A_REF)
        assert rho == pytest.approx(0.4)
        base = np.linalg.norm(errs[0])
        for t in range(len(errs)):
            assert np.linalg.norm(errs[t]) <= kappa * rho**t * base + 1e-12

        def time_to_threshold(tr):
            start = first_active_step(tr, 3)
            x = tr.series(3, "xa")
            p = tr.series(3, "xa_pub")
            gap = [float(np.linalg.norm(p[k] - x[k])) for k in range(start, tr.horizon)]
            return next(
                start + i for i in range(len(gap)) if all(v <= 1e-3 for v in gap[i:])
            )

        t_full = time_to_threshold(fullrank_trace)
        t_low = time_to_threshold(lowrank_trace)
        assert t_low > t_full
        print(
            f"PASS criterion 7: hidden directions 1, kernel (0,1); projected lag-1 error "
            f"{worst_proj:.3e}; forward recursion residual {worst_rec:.3e}; "
            f"time-to-1e-3 {t_low} (low) > {t_full} (full)"
        )


class TestOracleEquivalence:
    @staticmethod
    def full_horizon_oracle(config):
        """One-shot inversion of the whole run, fed by an independent replica sim.

        Simulates the replica model over the horizon, projects every state
        onto the interacting subspace, and solves the complete stacked
        linear system for the full input sequence at once.
        """
        sub = config.subsystems[config.attack.target]
        A, B = sub.A, sub.B
        n, m = B.shape
        H = config.horizon
        onset = config.attack.onset
        signal = config.attack.signal

        states = [np.zeros(n)]
        for k in range(H - 1):
            eta = signal(k) if k >= onset else np.zeros(m)
            states.append(A @ states[-1] + B @ np.atleast_1d(eta))

        proj = kernel_and_projection(
            config.topology.outbound_stack(config.attack.target, n)
        )
        P = proj.interacting_map
        powers = [np.eye(n)]
        for _ in range(H):
            powers.append(A @ powers[-1])

        p = P.shape[0]
        M = np.zeros((p * (H - 1), m * (H - 1)))
        rhs = np.zeros(p * (H - 1))
        for t in range(1, H):
            rhs[(t - 1) * p : t * p] = P @ states[t]
            for c in range(t):
                M[(t - 1) * p : t * p, c * m : (c + 1) * m] = P @ powers[t - 1 - c] @ B
        solution, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        return solution.reshape(H - 1, m), states

    def test_criterion_8_online_matches_one_shot_inversion(
        self, fullrank_config, lowrank_config, fullrank_trace, lowrank_trace
    ):
        report = {}
        for name, cfg, trace in (
            ("full", fullrank_config, fullrank_trace),
            ("low", lowrank_config, lowrank_trace),
        ):
            oracle_inputs, oracle_states = self.full_horizon_oracle(cfg)
            # the independent replica sim must agree with the logged one
            xa = trace.series(3, "xa")
            for k in range(trace.horizon):
                np.testing.assert_allclose(oracle_states[k], xa[k], atol=1e-9)

            kw = first_active_step(trace, 3)
            inj_hat = trace.series(3, "inj_hat")
            worst = max(
                float(np.max(np.abs(inj_hat[k] - oracle_inputs[k - 3])))
                for k in range(kw, trace.horizon)
            )
            assert worst <= 1e-8
            report[name] = worst
        print(
            f"PASS criterion 8: online vs one-shot inversion deviation "
            f"{report['full']:.3e} (full), {report['low']:.3e} (low)"
        )


class TestPropertySweep:
    def test_criterion_9_module_invariants_and_budget(self, session_clock):
        rng = np.random.default_rng(123)

        # Penrose identities on random shapes
        for _ in range(10):
            M = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
            Mp = pseudo_inverse(M)
            assert np.allclose(M @ Mp @ M, M, atol=1e-9)
            assert np.allclose(Mp @ M @ Mp, Mp, atol=1e-9)
            assert np.allclose((M @ Mp).T, M @ Mp, atol=1e-9)
            assert np.allclose((Mp @ M).T, Mp @ M, atol=1e-9)

        # kernel/projection orthogonality
        for _ in range(10):
            stack = rng.standard_normal((rng.integers(1, 5), 4))
            pair = kernel_and_projection(stack)
            P, N = pair.interacting_map, pair.kernel_basis
            assert np.allclose(P @ P.T, np.eye(P.shape[0]), atol=1e-9)
            assert np.allclose(N.T @ N, np.eye(pair.kernel_dim), atol=1e-9)
            assert np.allclose(P.T @ P + N @ N.T, np.eye(4), atol=1e-9)
            assert np.allclose(stack @ N, 0.0, atol=1e-9)

        # gain synthesis post-condition
        for seed in range(5):
            g = np.random.default_rng(seed)
            A = g.standard_normal((3, 3)) * 0.8
            B = g.standard_normal((3, 2))
            K = stabilizing_gain(A, B, 0.5)
            assert spectral_radius(A - B @ K) <= 0.5 + 1e-9

        # least-squares leaves the unobserved direction untouched
        from covacc import Topology

        blk = np.array([[0.1, 0.0], [-0.1, 0.0]])
        topo = Topology(3, {1: (3,), 2: (3,), 3: ()}, {(1, 3): blk, (2, 3): blk})
        est = build_ls_estimator(topo, 3, 2)
        for _ in range(10):
            truth = rng.standard_normal(2)
            payloads = {1: blk @ truth, 2: blk @ truth}
            out = ls_estimate(est, payloads)
            assert abs(est.projection.kernel_basis.T @ out) <= 1e-12

        # silencing one alarm never creates a decision
        import itertools

        def mk(origin, loud):
            return AlarmSignal(origin, 0, np.array([1.0]) if loud else np.zeros(1))

        for pattern in itertools.product([True, False], repeat=4):
            alarms = {j + 1: mk(j + 1, p) for j, p in enumerate(pattern)}
            before = decide_attack(alarms, tuple(alarms))
            for j, loud in enumerate(pattern):
                if loud:
                    quieter = dict(alarms)
                    quieter[j + 1] = mk(j + 1, False)
                    assert not decide_attack(quieter, tuple(alarms)) or before

        elapsed = time.monotonic() - session_clock
        assert elapsed < 30.0
        print(f"PASS criterion 9: property sweep clean, suite at {elapsed:.1f}s of the 30s budget")
