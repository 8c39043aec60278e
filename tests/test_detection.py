"""Alarm protocol: aggregates, emission, unanimity, threshold calibration."""

import numpy as np
import pytest

from covacc import ProtocolError, Subsystem, calibrate_thresholds, observer_gain

from reference import AlarmSignal, aggregate_error, decide_attack, emit_alarm, step_distributed


A = np.array([[0.4, 0.2], [0.0, 0.3]])
B = np.array([[0.0], [1.0]])
C2 = np.eye(2)
BLK = np.diag([0.1, -0.01])


class TestAggregateError:
    def test_needs_two_samples(self):
        assert aggregate_error(np.zeros(2), None, A) is None

    def test_difference_form(self):
        e1, e0 = np.array([1.0, 2.0]), np.array([0.5, -0.5])
        F = np.array([[0.1, 0.0], [0.0, 0.2]])
        np.testing.assert_allclose(aggregate_error(e1, e0, F), e1 - F @ e0)

    def test_quiet_when_error_follows_its_own_recursion(self):
        F = np.array([[0.3, 0.1], [0.0, 0.2]])
        e = np.array([1.0, -1.0])
        for _ in range(10):
            e_next = F @ e
            np.testing.assert_allclose(aggregate_error(e_next, e, F), 0.0, atol=1e-15)
            e = e_next

    def test_trace_aggregate_equals_coupling_times_replica(self, fullrank_trace):
        # node 1 watches node 3: its alarm payload at step k must equal the
        # coupling block applied to the replica state one step earlier
        xa = fullrank_trace.series(3, "xa")
        alarms = fullrank_trace.series(1, "alarm")
        theta = fullrank_trace.thresholds[1]
        resid = [float(v) for v in fullrank_trace.series(1, "resid_coop")]
        active = [k for k in range(100) if resid[k] > theta]
        assert active, "node 1 never fired"
        for k in active:
            np.testing.assert_allclose(alarms[k], BLK @ xa[k - 1], atol=1e-9)


class TestTwoAttackerSuperposition:
    def test_payload_superposes_contributions(self):
        """An observer of two attacked feeders sees the sum of both drives.

        Hand-rolled three-node chain: nodes 1 and 2 both feed node 3, each
        carrying its own covert injection; no accommodation anywhere.
        """
        subs = {i: Subsystem(index=i, A=A, B=B, C=C2) for i in (1, 2, 3)}
        L = observer_gain(A, C2, 0.2)
        blocks = {1: np.diag([0.1, -0.01]), 2: np.diag([0.05, 0.02])}
        onset = {1: 8, 2: 12}
        inj = {1: np.array([1.0]), 2: np.array([-0.5])}

        x = {i: np.zeros(2) for i in subs}
        replica = {1: np.zeros(2), 2: np.zeros(2)}
        xhat = {i: np.zeros(2) for i in subs}
        transition = A - L @ C2
        prev_err = None
        for k in range(40):
            masks = {i: C2 @ replica[i] for i in replica}
            y = {i: C2 @ x[i] - masks.get(i, np.zeros(2)) for i in subs}
            err3 = y[3] - C2 @ xhat[3]
            agg = aggregate_error(err3, prev_err, transition)
            if k > max(onset.values()) + 2:
                expected = blocks[1] @ replica_prev[1] + blocks[2] @ replica_prev[2]
                np.testing.assert_allclose(agg, expected, atol=1e-9)
            prev_err = err3.copy()
            replica_prev = {i: replica[i].copy() for i in replica}
            # advance: node 3's distributed observer receives the visible
            # estimates of its feeders (their decoupled estimates are exact
            # here, so pass the masked states directly)
            visible = {j: x[j] - replica[j] for j in (1, 2)}
            xhat[3] = step_distributed(
                subs[3], L, xhat[3], np.zeros(1), y[3],
                {1: blocks[1], 2: blocks[2]}, visible,
            )
            nxt = {}
            for i in subs:
                add = np.zeros(2)
                if i == 3:
                    add = blocks[1] @ x[1] + blocks[2] @ x[2]
                u = np.zeros(1)
                if i in onset and k >= onset[i]:
                    u = inj[i]
                nxt[i] = A @ x[i] + B @ u + add
            x = nxt
            for i in replica:
                drive = inj[i] if k >= onset[i] else np.zeros(1)
                replica[i] = A @ replica[i] + B @ drive


class TestEmitAlarm:
    def test_loud(self):
        agg = np.array([0.1, 0.2])
        a = emit_alarm(1, 5, 0.5, 0.1, agg, 2)
        assert a.active
        np.testing.assert_array_equal(a.payload, agg)
        assert (a.origin, a.step) == (1, 5)

    def test_quiet_below_threshold(self):
        a = emit_alarm(1, 5, 0.05, 0.1, np.array([0.1, 0.2]), 2)
        assert not a.active
        np.testing.assert_array_equal(a.payload, np.zeros(2))

    def test_borderline_equality_stays_quiet(self):
        a = emit_alarm(1, 5, 0.1, 0.1, np.array([0.1, 0.2]), 2)
        assert not a.active

    def test_not_ready_stays_quiet(self):
        a = emit_alarm(1, 0, 0.5, 0.1, None, 2)
        assert not a.active

    def test_unarmed_stays_quiet(self):
        a = emit_alarm(1, 3, 0.5, 0.1, np.array([1.0, 1.0]), 2, armed=False)
        assert not a.active

    def test_payload_is_a_copy(self):
        agg = np.array([0.1, 0.2])
        a = emit_alarm(1, 5, 0.5, 0.1, agg, 2)
        agg[0] = 99.0
        assert a.payload[0] == 0.1


class TestDecideAttack:
    def alarm(self, origin, loud):
        payload = np.array([1.0, 0.0]) if loud else np.zeros(2)
        return AlarmSignal(origin=origin, step=0, payload=payload)

    def test_unanimous(self):
        alarms = {1: self.alarm(1, True), 2: self.alarm(2, True)}
        assert decide_attack(alarms, (1, 2))

    def test_one_quiet_blocks(self):
        alarms = {1: self.alarm(1, True), 2: self.alarm(2, False)}
        assert not decide_attack(alarms, (1, 2))

    def test_empty_inbound_never_decides(self):
        assert not decide_attack({}, ())

    def test_missing_alarm_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            decide_attack({1: self.alarm(1, True)}, (1, 2))

    def test_silencing_any_alarm_never_creates_a_decision(self):
        # monotone in the alarm pattern: flipping one loud alarm to quiet
        # can only remove decisions, never add them
        import itertools

        for pattern in itertools.product([True, False], repeat=3):
            alarms = {j + 1: self.alarm(j + 1, p) for j, p in enumerate(pattern)}
            base = decide_attack(alarms, (1, 2, 3))
            for j in range(3):
                if pattern[j]:
                    quieted = dict(alarms)
                    quieted[j + 1] = self.alarm(j + 1, False)
                    assert not (decide_attack(quieted, (1, 2, 3)) and not base)
                    assert not decide_attack(quieted, (1, 2, 3)) or base


class TestCalibration:
    def test_arithmetic(self):
        hist = {1: [9.0] * 10 + [0.5, 0.1] + [0.0] * 8}
        out = calibrate_thresholds({1: hist[1]}, factor=2.0, floor=1e-6, window=(10, 20))
        assert out[1] == pytest.approx(2.0 * 0.5 + 1e-6)

    def test_floor_alone_when_window_silent(self):
        out = calibrate_thresholds({1: [0.0] * 25}, factor=2.0, floor=1e-6, window=(10, 20))
        assert out[1] == pytest.approx(1e-6)

    def test_short_history_warns_and_truncates(self):
        with pytest.warns(RuntimeWarning, match="truncat"):
            out = calibrate_thresholds({1: [0.0] * 12 + [0.3]}, window=(10, 20))
        assert out[1] == pytest.approx(0.6 + 1e-6)

    def test_no_false_alarms_over_long_quiet_run(self, attack_free_long_trace):
        tr = attack_free_long_trace
        for i in range(1, 6):
            resid = [float(v) for v in tr.series(i, "resid_coop")]
            flags = [int(v) for v in tr.series(i, "alarm_on")]
            assert max(resid) <= tr.thresholds[i]
            assert sum(flags) == 0
        assert all(step is None for step in tr.decision_steps.values())
