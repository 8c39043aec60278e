"""Linear-algebra primitives: pseudo-inverse, kernel splits, gain synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import place_poles

from covacc import (
    SynthesisError,
    kernel_and_projection,
    numerics,
    observer_gain,
    pseudo_inverse,
    spectral_radius,
    stabilizing_gain,
)

A_PAIR = np.array([[0.4, 0.2], [0.0, 0.3]])
B_PAIR = np.array([[0.0], [1.0]])
# mode 0.1 is uncontrollable, so pole placement rejects the pair and the
# Riccati design has to move mode 0.9 under the target
A_STUCK = np.diag([0.1, 0.9])
B_STUCK = np.array([[0.0], [1.0]])


class TestPseudoInverse:
    def test_tall_column(self):
        # pinv of a 2x1 column v is v.T / ||v||^2
        M = np.array([[0.1], [-0.1]])
        out = pseudo_inverse(M)
        assert out.shape == (1, 2)
        np.testing.assert_allclose(out, [[5.0, -5.0]], atol=1e-12)

    def test_square_invertible_matches_inverse(self):
        M = np.array([[2.0, 1.0], [0.0, 4.0]])
        np.testing.assert_allclose(pseudo_inverse(M), np.linalg.inv(M), atol=1e-12)

    def test_empty_matrix(self):
        out = pseudo_inverse(np.zeros((0, 3)))
        assert out.shape == (3, 0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10_000))
    def test_penrose_conditions(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((rows, cols))
        if seed % 3 == 0 and rows > 1:
            M[-1] = M[0]  # force a rank defect some of the time
        P = pseudo_inverse(M)
        np.testing.assert_allclose(M @ P @ M, M, atol=1e-9)
        np.testing.assert_allclose(P @ M @ P, P, atol=1e-9)
        np.testing.assert_allclose(M @ P, (M @ P).T, atol=1e-9)
        np.testing.assert_allclose(P @ M, (P @ M).T, atol=1e-9)


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.2, -0.7])) == pytest.approx(0.7)

    def test_rotation_complex_pair(self):
        th = 0.3
        R = 0.9 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert spectral_radius(R) == pytest.approx(0.9, abs=1e-12)

    def test_empty(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0


class TestKernelAndProjection:
    def test_low_rank_coupling_stack(self):
        # two observers see the same rank-1 block; second state coordinate is hidden
        blk = np.array([[0.1, 0.0], [-0.1, 0.0]])
        pair = kernel_and_projection(np.vstack([blk, blk]))
        assert pair.kernel_dim == 1
        assert pair.interacting_map.shape == (1, 2)
        np.testing.assert_allclose(np.abs(pair.interacting_map), [[1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(np.abs(pair.kernel_basis.ravel()), [0.0, 1.0], atol=1e-12)

    def test_full_rank_stack_has_no_kernel(self):
        blk = np.diag([0.1, -0.01])
        pair = kernel_and_projection(np.vstack([blk, blk]))
        assert pair.kernel_dim == 0
        assert pair.kernel_basis.shape == (2, 0)
        # P is orthonormal and spans all of R^2
        np.testing.assert_allclose(pair.interacting_map @ pair.interacting_map.T, np.eye(2), atol=1e-12)

    def test_zero_stack_everything_hidden(self):
        pair = kernel_and_projection(np.zeros((4, 3)))
        assert pair.kernel_dim == 3
        assert pair.interacting_map.shape == (0, 3)
        np.testing.assert_allclose(pair.kernel_basis @ pair.kernel_basis.T, np.eye(3), atol=1e-12)

    def test_empty_stack_treated_as_zero(self):
        pair = kernel_and_projection(np.zeros((0, 2)))
        assert pair.kernel_dim == 2

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 10_000))
    def test_split_is_an_orthogonal_decomposition(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        stack = rng.standard_normal((rows, n))
        pair = kernel_and_projection(stack)
        P, N = pair.interacting_map, pair.kernel_basis
        r = P.shape[0]
        assert r + pair.kernel_dim == n
        np.testing.assert_allclose(P @ P.T, np.eye(r), atol=1e-9)
        np.testing.assert_allclose(N.T @ N, np.eye(pair.kernel_dim), atol=1e-9)
        np.testing.assert_allclose(P @ N, np.zeros((r, pair.kernel_dim)), atol=1e-9)
        np.testing.assert_allclose(P.T @ P + N @ N.T, np.eye(n), atol=1e-9)
        # kernel basis really annihilates the stack
        np.testing.assert_allclose(stack @ N, np.zeros((rows, pair.kernel_dim)), atol=1e-9)


class TestStabilizingGain:
    def test_reference_pair_places_halved_ladder(self):
        K = stabilizing_gain(A_PAIR, B_PAIR, 0.2)
        spectrum = sorted(abs(np.linalg.eigvals(A_PAIR - B_PAIR @ K)))
        np.testing.assert_allclose(spectrum, [0.1, 0.2], atol=1e-9)

    def test_default_target(self):
        K = stabilizing_gain(A_PAIR, B_PAIR)
        assert spectral_radius(A_PAIR - B_PAIR @ K) <= 0.5 + 1e-9

    def test_stable_pair_still_gets_active_gain(self):
        # rho(A) = 0.4 is already below 0.5, but the regulator must still act
        K = stabilizing_gain(A_PAIR, B_PAIR, 0.5)
        assert np.linalg.norm(K) > 0.0

    def test_uncontrollable_but_stable_returns_zero_gain(self):
        A = np.diag([0.3, 0.2])
        B = np.array([[1.0], [0.0]])
        K = stabilizing_gain(A, B, 0.5)
        np.testing.assert_allclose(K, np.zeros((1, 2)), atol=1e-12)
        assert spectral_radius(A - B @ K) <= 0.5

    def test_uncontrollable_unstable_mode_is_rejected(self):
        A = np.diag([2.0, 0.3])
        B = np.array([[0.0], [1.0]])
        with pytest.raises(SynthesisError, match="2"):
            stabilizing_gain(A, B, 0.5)

    def test_riccati_fallback_when_placement_rejects(self):
        with pytest.raises(ValueError):
            place_poles(A_STUCK, B_STUCK, [0.5, 0.25])
        K = stabilizing_gain(A_STUCK, B_STUCK, 0.5)
        spectrum = sorted(abs(np.linalg.eigvals(A_STUCK - B_STUCK @ K)))
        np.testing.assert_allclose(spectrum, [0.1, 0.362333], atol=1e-6)

    def test_three_state_random_controllable(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 1))
        K = stabilizing_gain(A, B, 0.5)
        assert spectral_radius(A - B @ K) <= 0.5 + 1e-9


class TestClosedFormPlacement:
    """The port of ``place_poles``'s rank-1 and rank-n branches against scipy."""

    @pytest.mark.parametrize("kind", ["single", "square", "wide"])
    def test_matches_scipy_on_seeded_draws(self, kind):
        rng = np.random.default_rng(["single", "square", "wide"].index(kind))
        refused = stuck = 0
        for draw in range(120):
            n = 1 + draw % 6
            columns = {"single": 1, "square": n, "wide": n + 1}[kind]
            A, B = rng.standard_normal((n, n)), rng.standard_normal((n, columns))
            if kind == "single" and draw % 10 == 9 and n > 1:
                # the input reaches only the last of n decoupled modes, exactly:
                # every step is exact and the eigenvector matrix singular
                A, B = np.diag(np.diag(A)), np.eye(n)[:, -1:] * B
                stuck += 1
            poles = numerics._placement_poles(n, 0.5)
            try:
                expected = place_poles(A, B, poles)
            except ValueError:
                refused += 1
                with pytest.raises(ValueError):
                    numerics._closed_form_gain(A, B, poles)
                continue
            K = numerics._closed_form_gain(A, B, poles)
            # exact in the rank-n case (X = I); with one input the gain is
            # as sensitive to the LAPACK's QR rounding as X is ill-conditioned
            scale = np.linalg.cond(expected.X) * max(1.0, np.abs(expected.gain_matrix).max())
            assert np.abs(K - expected.gain_matrix).max() <= 1e-12 * scale
        assert refused == stuck

    def test_stuck_pair_is_refused_and_takes_the_riccati_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("scipy.signal.place_poles was called")

        with pytest.raises(ValueError):
            numerics._closed_form_gain(A_STUCK, B_STUCK, numerics._placement_poles(2, 0.5))
        monkeypatch.setattr(numerics, "place_poles", refuse)
        K = stabilizing_gain(A_STUCK, B_STUCK, 0.5)
        spectrum = sorted(abs(np.linalg.eigvals(A_STUCK - B_STUCK @ K)))
        np.testing.assert_allclose(spectrum, [0.1, 0.362333], atol=1e-6)

    def test_non_finite_gain_is_refused_as_scipy_does(self):
        # a subnormal input matrix has full rank, and the solve overflows
        B = 1e-310 * np.eye(2)
        poles = numerics._placement_poles(2, 0.5)
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            place_poles(A_PAIR, B, poles)
        with pytest.raises(ValueError):
            numerics._closed_form_gain(A_PAIR, B, poles)
        np.testing.assert_array_equal(stabilizing_gain(A_PAIR, B, 0.5), np.zeros((2, 2)))

    @pytest.mark.parametrize("B", [
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),  # 1 < rank 2 < n = 3
        np.array([[1.0, 2.0], [0.5, 1.0], [0.0, 0.0]]),  # rank 1, two columns
    ])
    def test_other_ranks_go_to_scipy(self, monkeypatch, B):
        A = np.random.default_rng(3).standard_normal((3, 3))
        A[2] = [0.0, 0.0, 0.2]  # the third coordinate is stable on its own when B misses it
        seen = []

        def recording(A_, B_, poles):
            seen.append(B_)
            return place_poles(A_, B_, poles)

        monkeypatch.setattr(numerics, "place_poles", recording)
        assert numerics._closed_form_gain(A, B, numerics._placement_poles(3, 0.5)) is None
        stabilizing_gain(A, B, 0.5)
        assert len(seen) == 1 and np.array_equal(seen[0], B)


class TestObserverGain:
    def test_dual_of_state_feedback(self):
        L = observer_gain(A_PAIR, np.eye(2), 0.2)
        spectrum = sorted(abs(np.linalg.eigvals(A_PAIR - L @ np.eye(2))))
        np.testing.assert_allclose(spectrum, [0.1, 0.2], atol=1e-9)

    def test_single_output_row(self):
        C = np.array([[1.0, 0.0]])
        L = observer_gain(A_PAIR, C, 0.3)
        assert L.shape == (2, 1)
        assert spectral_radius(A_PAIR - L @ C) <= 0.3 + 1e-9

    def test_riccati_fallback_through_the_dual(self):
        C = B_STUCK.T
        L = observer_gain(A_STUCK, C, 0.5)
        spectrum = sorted(abs(np.linalg.eigvals(A_STUCK - L @ C)))
        np.testing.assert_allclose(spectrum, [0.1, 0.362333], atol=1e-6)

    def test_undetectable_unstable_mode_is_rejected(self):
        # second coordinate is invisible through C and unstable
        A = np.diag([0.3, 1.5])
        C = np.array([[1.0, 0.0]])
        with pytest.raises(SynthesisError):
            observer_gain(A, C, 0.5)
