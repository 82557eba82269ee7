from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from envarkit import (
    OrbitElement,
    StructuralModel,
    align_obs,
    align_sf,
    obs_equivalent,
    orbit_transform,
    sf_equivalent,
    to_reduced_form,
)
from envarkit.equivalence import AlignmentResult, stacked
from envarkit.errors import DimensionError

from conftest import random_admissible, random_orthogonal
from oracles import brute_force_alignment


def raw_objective(m_ref, m_test, q, c, eta):
    s_ref = np.hstack([m_ref.b, m_ref.a1])
    s_test = np.hstack([m_test.b, m_test.a1])
    return float(
        np.sum((s_test - c * q @ s_ref) ** 2)
        + eta * (m_test.sigma - c * m_ref.sigma) ** 2
    )


class TestOrbitTransform:
    def test_identity_element(self):
        rng = np.random.default_rng(0)
        m = random_admissible(3, rng)
        out = orbit_transform(m, OrbitElement(q=np.eye(3), c=1.0))
        np.testing.assert_allclose(out.a0, m.a0, atol=1e-14)
        np.testing.assert_allclose(out.a1, m.a1, atol=1e-14)
        assert out.sigma == pytest.approx(m.sigma)

    def test_pure_doubling(self):
        rng = np.random.default_rng(1)
        m = random_admissible(2, rng)
        out = orbit_transform(m, OrbitElement(q=np.eye(2), c=2.0))
        np.testing.assert_allclose(out.b, 2.0 * m.b, atol=1e-14)
        np.testing.assert_allclose(out.a1, 2.0 * m.a1, atol=1e-14)
        assert out.sigma == pytest.approx(2.0 * m.sigma)
        assert obs_equivalent(m, out)

    def test_reduced_form_preserved(self):
        rng = np.random.default_rng(2)
        m = random_admissible(3, rng)
        e = OrbitElement(q=random_orthogonal(3, rng), c=1.9)
        rf1, rf2 = to_reduced_form(m), to_reduced_form(orbit_transform(m, e))
        assert np.max(np.abs(rf1.phi - rf2.phi)) <= 1e-9
        assert np.max(np.abs(rf1.sigma_u - rf2.sigma_u)) <= 1e-9

    def test_invalid_orbit_element(self):
        with pytest.raises(DimensionError):
            OrbitElement(q=np.array([[1.0, 0.2], [0.0, 1.0]]), c=1.0)
        with pytest.raises(DimensionError):
            OrbitElement(q=np.eye(2), c=-1.0)


class TestEquivalencePredicates:
    def test_orbit_members_are_equivalent(self):
        rng = np.random.default_rng(3)
        m = random_admissible(3, rng)
        out = orbit_transform(m, OrbitElement(q=random_orthogonal(3, rng), c=0.7))
        assert obs_equivalent(m, out)

    def test_sigma_rescaling_breaks_equality(self):
        rng = np.random.default_rng(4)
        m = random_admissible(3, rng)
        doubled = StructuralModel(a0=m.a0, a1=m.a1, sigma=2.0 * m.sigma)
        assert not obs_equivalent(m, doubled)  # covariance scales by 4
        tripled = StructuralModel(a0=m.a0, a1=m.a1, sigma=3.0 * m.sigma)
        result = sf_equivalent(m, tripled)
        assert result.equivalent
        assert result.scale == pytest.approx(9.0)

    def test_independent_models_not_equivalent(self):
        rng = np.random.default_rng(5)
        m1 = random_admissible(3, rng)
        m2 = random_admissible(3, rng)
        assert not obs_equivalent(m1, m2)

    def test_scale_free_after_orbit_and_sigma_swap(self):
        rng = np.random.default_rng(6)
        m = random_admissible(3, rng)
        out = orbit_transform(m, OrbitElement(q=random_orthogonal(3, rng), c=1.4))
        swapped = StructuralModel(a0=out.a0, a1=out.a1, sigma=0.123)
        assert sf_equivalent(m, swapped).equivalent

    def test_different_phi_not_scale_free(self):
        m1 = StructuralModel(np.zeros((2, 2)), 0.5 * np.eye(2), 1.0)
        m2 = StructuralModel(np.zeros((2, 2)), 0.3 * np.eye(2), 1.0)
        assert not sf_equivalent(m1, m2).equivalent


class TestAlignObs:
    def test_self_alignment(self):
        rng = np.random.default_rng(7)
        m = random_admissible(3, rng)
        result = align_obs(m, m, eta=1.0)
        assert result.value <= 1e-9
        assert result.c_star == pytest.approx(1.0, abs=1e-9)

    def test_orbit_member_zero(self):
        rng = np.random.default_rng(8)
        for p in (2, 3, 5):
            m = random_admissible(p, rng)
            e = OrbitElement(q=random_orthogonal(p, rng), c=float(rng.uniform(0.3, 3)))
            member = orbit_transform(m, e)
            assert align_obs(m, member, eta=1.0).value <= 1e-8

    @pytest.mark.parametrize("eta", [-1.0, np.nan, np.inf, 10**400, True, "1"],
                             ids=["negative", "nan", "inf", "huge-int", "bool", "str"])
    def test_rejects_bad_eta(self, eta):
        m = random_admissible(2, np.random.default_rng(7))
        with pytest.raises(DimensionError, match="^eta must be a finite number >= 0"):
            align_obs(m, m, eta=eta)

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_matches_brute_force(self, eta):
        rng = np.random.default_rng(9)
        for _ in range(25):
            m_ref = random_admissible(2, rng)
            m_test = random_admissible(2, rng)
            closed = align_obs(m_ref, m_test, eta=eta).value
            oracle = brute_force_alignment(m_ref, m_test, eta=eta)
            assert closed == pytest.approx(oracle, abs=1e-5)

    def test_optimizer_attains_value(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            m_ref = random_admissible(3, rng)
            m_test = random_admissible(3, rng)
            result = align_obs(m_ref, m_test, eta=1.0)
            attained = raw_objective(m_ref, m_test, result.q_star, result.c_star, 1.0)
            assert attained == pytest.approx(result.value, abs=1e-8)

    def test_eta_zero_equals_scale_free(self):
        rng = np.random.default_rng(11)
        m_ref = random_admissible(3, rng)
        m_test = random_admissible(3, rng)
        assert align_obs(m_ref, m_test, eta=0.0).value == pytest.approx(
            align_sf(m_ref, m_test).value, abs=1e-12
        )

    def test_not_symmetric_in_general(self):
        # the discrepancy is one-sided: swapping reference and test changes it
        rng = np.random.default_rng(12)
        m1 = random_admissible(2, rng)
        m3 = random_admissible(2, rng)
        a = align_obs(m1, m3, eta=1.0).value
        b = align_obs(m3, m1, eta=1.0).value
        assert abs(a - b) > 1e-6

    def test_unique_q_flag_on_degenerate_cross(self):
        # orthogonal reference stack makes S S'^T have equal singular values
        m_ref = StructuralModel(np.zeros((2, 2)), np.zeros((2, 2)) + np.eye(2) * 0.5, 1.0)
        result = align_obs(m_ref, m_ref, eta=1.0)
        assert not result.unique_q

    def test_generic_cross_is_unique(self):
        rng = np.random.default_rng(13)
        m_ref = random_admissible(3, rng)
        m_test = random_admissible(3, rng)
        assert align_obs(m_ref, m_test, eta=1.0).unique_q


class TestAlignSf:
    def test_self_is_zero(self):
        rng = np.random.default_rng(14)
        m = random_admissible(4, rng)
        assert align_sf(m, m).value <= 1e-9

    def test_orbit_member_any_sigma(self):
        rng = np.random.default_rng(15)
        m = random_admissible(3, rng)
        member = orbit_transform(m, OrbitElement(q=random_orthogonal(3, rng), c=2.2))
        member = StructuralModel(member.a0, member.a1, sigma=7.7)
        assert align_sf(m, member).value <= 1e-8

    def test_matches_brute_force(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            m_ref = random_admissible(2, rng)
            m_test = random_admissible(2, rng)
            closed = align_sf(m_ref, m_test).value
            oracle = brute_force_alignment(m_ref, m_test, eta=0.0)
            assert closed == pytest.approx(oracle, abs=1e-5)

    def test_sigma_insensitive(self):
        rng = np.random.default_rng(17)
        m_ref = random_admissible(3, rng)
        m_test = random_admissible(3, rng)
        v1 = align_sf(m_ref, m_test).value
        v2 = align_sf(m_ref, StructuralModel(m_test.a0, m_test.a1, 123.0)).value
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_degenerate_alpha_flag(self):
        # a1 = 0 on both sides with orthogonal-complement b's is impossible for
        # square invertible b, so force alpha = 0 via zero test stack pairing:
        # S S'^T = 0 cannot happen with invertible blocks; check the flag stays
        # False on generic input instead and value is nonnegative.
        rng = np.random.default_rng(18)
        m_ref = random_admissible(2, rng)
        m_test = random_admissible(2, rng)
        result = align_sf(m_ref, m_test)
        assert not result.infimum_not_attained
        assert result.value >= 0.0


def _zero_stack(p):
    """B = I - a0 = 0 and a1 = 0: every cross product vanishes, so alpha = 0."""
    return StructuralModel(np.eye(p), np.zeros((p, p)), 0.7)


def _alignment_pairs():
    rng = np.random.default_rng(26)
    pairs = [
        pytest.param(random_admissible(p, rng), random_admissible(p, rng), id=f"p{p}")
        for p in (1, 2, 5, 12)
    ]
    m = random_admissible(3, rng)
    member = orbit_transform(m, OrbitElement(q=random_orthogonal(3, rng), c=0.4))
    pairs += [
        pytest.param(m, member, id="orbit-member"),
        pytest.param(_zero_stack(1), random_admissible(1, rng), id="p1-zero-reference"),
        pytest.param(random_admissible(3, rng), _zero_stack(3), id="zero-test"),
        pytest.param(_zero_stack(2), _zero_stack(2), id="both-zero"),
        pytest.param(
            StructuralModel(np.zeros((2, 2)), np.zeros((2, 2)), 2.0),
            random_admissible(2, rng),
            id="zero-a0-a1",
        ),
    ]
    return pairs


class TestAlignSfIsAlignObsAtEtaZero:
    @pytest.mark.parametrize("m_ref, m_test", _alignment_pairs())
    def test_every_field_bitwise(self, m_ref, m_test):
        sf, obs = align_sf(m_ref, m_test), align_obs(m_ref, m_test, eta=0.0)
        for f in fields(AlignmentResult):
            a, b = getattr(sf, f.name), getattr(obs, f.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name

    def test_zero_stack_reaches_infimum_branch(self):
        result = align_sf(random_admissible(3, np.random.default_rng(27)), _zero_stack(3))
        assert result.infimum_not_attained
        assert result.c_star == 0.0


class TestZeroDiscrepancyCharacterization:
    def test_equivalence_iff_zero(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            m = random_admissible(3, rng)
            member = orbit_transform(
                m, OrbitElement(q=random_orthogonal(3, rng), c=float(rng.uniform(0.5, 2)))
            )
            other = random_admissible(3, rng)
            assert align_obs(m, member, eta=1.0).value <= 1e-8
            assert obs_equivalent(m, member, tol=1e-6)
            assert align_obs(m, other, eta=1.0).value > 1e-8
            assert not obs_equivalent(m, other, tol=1e-6)


class TestStacked:
    def test_stacked_shape(self):
        rng = np.random.default_rng(25)
        m = random_admissible(3, rng)
        s = stacked(m)
        assert s.shape == (3, 6)
        np.testing.assert_allclose(s[:, :3], m.b)
        np.testing.assert_allclose(s[:, 3:], m.a1)
