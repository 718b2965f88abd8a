import dataclasses

import numpy as np
import pytest

from irsbeam import (
    SPEED_OF_LIGHT,
    Axis,
    DelayProfile,
    Design,
    FarFieldTarget,
    GainMap,
    IrsArray,
    NearFieldGeometry,
    PhaseProfile,
    WidebandConfig,
    far_beam_gain,
    far_beam_gain_profile,
    near_beam_gain,
    near_gain_row,
    subcarrier_frequencies,
    subcarrier_frequency,
)
from irsbeam.farfield import far_design
from irsbeam.nearfield import near_design


class TestWidebandConfig:
    def test_wavelength_consistent_with_exact_c(self):
        cfg = WidebandConfig(200e9, 6e9, 128)
        assert cfg.wavelength_m * cfg.carrier_hz == SPEED_OF_LIGHT

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(carrier_hz=-1.0, bandwidth_hz=6e9, n_subcarriers=128),
            dict(carrier_hz=0.0, bandwidth_hz=6e9, n_subcarriers=128),
            dict(carrier_hz=200e9, bandwidth_hz=0.0, n_subcarriers=128),
            dict(carrier_hz=200e9, bandwidth_hz=400e9, n_subcarriers=128),
            dict(carrier_hz=200e9, bandwidth_hz=6e9, n_subcarriers=0),
        ],
    )
    def test_invariants_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WidebandConfig(**kwargs)


class TestSubcarrierGrid:
    def test_reference_edge_frequencies(self, cfg200):
        # hand-derived: 200 GHz -/+ (6 GHz / 128) * 63.5, both exactly representable
        f = subcarrier_frequencies(cfg200)
        assert f[0] == 197023437500.0
        assert f[-1] == 202976562500.0

    def test_single_subcarrier_sits_on_carrier(self):
        cfg = WidebandConfig(200e9, 6e9, 1)
        f = subcarrier_frequencies(cfg)
        assert f.tolist() == [200e9]

    def test_spacing_and_symmetry(self, cfg200):
        f = subcarrier_frequencies(cfg200)
        np.testing.assert_allclose(np.diff(f), cfg200.subcarrier_spacing_hz, rtol=1e-15)
        np.testing.assert_allclose(f + f[::-1], 2 * cfg200.carrier_hz, rtol=1e-15)
        assert f.mean() == cfg200.carrier_hz

    def test_mean_equals_carrier_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            cfg = WidebandConfig(
                carrier_hz=rng.uniform(1e9, 1e12),
                bandwidth_hz=rng.uniform(1e6, 1e9),
                n_subcarriers=int(rng.integers(1, 512)),
            )
            f = subcarrier_frequencies(cfg)
            np.testing.assert_allclose(f.mean(), cfg.carrier_hz, rtol=1e-12)

    def test_selector_indexing(self, cfg200):
        f = subcarrier_frequencies(cfg200)
        assert subcarrier_frequency(cfg200, 0) == cfg200.carrier_hz
        assert subcarrier_frequency(cfg200, 1) == f[0]
        assert subcarrier_frequency(cfg200, 128) == f[-1]
        for bad in (-1, 129):
            with pytest.raises(ValueError):
                subcarrier_frequency(cfg200, bad)


class TestFarSteeringVector:
    """The planar path phase pi (r-1)(1 + f/f_c) nu, observed through the gain."""

    def test_broadside_is_all_ones(self, array64, cfg200):
        # every entry is 1 at nu = 0, so a zero profile sums to R at any frequency
        gains = far_beam_gain_profile(
            array64, cfg200, subcarrier_frequencies(cfg200), [0.0], PhaseProfile(np.zeros(64))
        )
        np.testing.assert_array_equal(gains, 64.0)

    def test_single_element(self, cfg200):
        array = IrsArray.half_wavelength(cfg200, 1)
        g = far_beam_gain(array, cfg200, 150e9, 0.7, PhaseProfile(np.array([1.3])))
        np.testing.assert_allclose(g, 1.0, rtol=1e-15)

    def test_second_entry_at_carrier_half_direction(self, cfg200):
        # entry 2 is exp(-j pi (1 + 1) 0.5) = -1, which cancels entry 1
        array = IrsArray.half_wavelength(cfg200, 2)
        g = far_beam_gain(array, cfg200, 200e9, 0.5, PhaseProfile(np.zeros(2)))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_unit_modulus_and_first_entry(self, array64, cfg200):
        # unit-modulus entries: phases conjugate to the path phase at (f, nu)
        # co-phase all R elements
        rng = np.random.default_rng(11)
        r = np.arange(64)
        for _ in range(50):
            f = rng.uniform(0.9, 1.1) * cfg200.carrier_hz
            nu = rng.uniform(-2, 2)
            phases = PhaseProfile(np.pi * r * (1 + f / cfg200.carrier_hz) * nu)
            g = far_beam_gain(array64, cfg200, f, nu, phases)
            np.testing.assert_allclose(g, 64.0, rtol=1e-12)

    def test_conjugate_symmetry(self, array64, cfg200):
        # a(-nu) = conj(a(nu)): flipping nu and every phase leaves the gain
        raw = np.random.default_rng(13).uniform(0, 2 * np.pi, 64)
        g_pos = far_beam_gain(array64, cfg200, 197e9, 0.8, PhaseProfile(raw))
        g_neg = far_beam_gain(array64, cfg200, 197e9, -0.8, PhaseProfile(-raw))
        np.testing.assert_allclose(g_neg, g_pos, rtol=1e-12)

    @pytest.mark.parametrize("freq,nu", [(np.nan, 0.5), (np.inf, 0.5), (-1e9, 0.5),
                                         (200e9, np.nan), (200e9, 2.5)])
    def test_rejects_bad_inputs(self, array64, cfg200, freq, nu):
        with pytest.raises(ValueError):
            far_beam_gain(array64, cfg200, freq, nu, PhaseProfile(np.zeros(64)))


class TestNearSteeringVector:
    """The spherical path phase (2 pi / lambda_c)(1 + f/f_c)(d_r^BR + d_r^target),
    observed through the gain."""

    def test_reference_distances(self, geometry64):
        d_bs = geometry64.element_distances(geometry64.bs_xy)
        d_user = geometry64.element_distances(geometry64.user_xy)
        assert d_bs[0] == np.sqrt(2.0)
        assert d_user[0] == np.sqrt(5.0)
        np.testing.assert_array_equal(geometry64.bs_distances, d_bs)
        np.testing.assert_array_equal(geometry64.user_distances, d_user)

    def test_unit_modulus(self, geometry64, cfg200):
        # phases conjugate to the path phase at (f, target) co-phase all R elements
        f, target = 197e9, (2.0, 0.5)
        path = geometry64.bs_distances + geometry64.element_distances(target)
        k = 2 * np.pi / cfg200.wavelength_m
        phases = PhaseProfile(k * (1 + f / cfg200.carrier_hz) * path)
        g = near_beam_gain(geometry64, cfg200, f, target, phases)
        np.testing.assert_allclose(g, 64.0, rtol=1e-9)

    def test_coincident_target_rejected(self, geometry64, cfg200):
        phases = PhaseProfile(np.zeros(64))
        with pytest.raises(ValueError, match="coincides"):
            near_beam_gain(geometry64, cfg200, 200e9, (1.0, 1.0), phases)
        on_element = (geometry64.element_x[5], 1.0)
        with pytest.raises(ValueError, match=r"point \(.*\) coincides"):
            near_gain_row(geometry64, cfg200, 200e9, [(2.0, 0.0), on_element], phases)

    def test_matches_longhand_phase(self, geometry64, cfg200):
        f = 199e9
        target = (2.5, -0.25)
        phases = PhaseProfile(np.random.default_rng(17).uniform(0, 2 * np.pi, 64))
        d_bs = geometry64.element_distances(geometry64.bs_xy)
        d_t = geometry64.element_distances(target)
        expected = np.abs(np.sum(np.exp(1j * (
            phases.phases
            - (2 * np.pi / cfg200.wavelength_m) * (1 + f / cfg200.carrier_hz) * (d_bs + d_t)
        ))))
        g = near_beam_gain(geometry64, cfg200, f, target, phases)
        np.testing.assert_allclose(g, expected, rtol=1e-10)

    @pytest.mark.parametrize("freq", [np.nan, np.inf, -1e9, [200e9, np.nan]])
    def test_rejects_bad_frequencies(self, geometry64, cfg200, freq):
        with pytest.raises(ValueError, match="freq_hz"):
            near_gain_row(geometry64, cfg200, freq, [(3.0, 0.0)], PhaseProfile(np.zeros(64)))


class TestProfilesAndTypes:
    def test_phase_profile_wraps_into_canonical_range(self):
        p = PhaseProfile(np.array([-0.1, 2 * np.pi + 0.25, 7 * np.pi]))
        assert np.all(p.phases >= 0.0) and np.all(p.phases < 2 * np.pi)
        np.testing.assert_allclose(p.phases[1], 0.25, atol=1e-12)
        np.testing.assert_allclose(p.phases[2], np.pi, atol=1e-9)

    def test_phase_profile_immutable(self):
        p = PhaseProfile(np.zeros(4))
        with pytest.raises(ValueError):
            p.phases[0] = 1.0

    def test_delay_profile_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            DelayProfile(np.array([1e-12, -1e-12]))

    def test_far_field_target_from_angles(self):
        t = FarFieldTarget.from_angles(np.pi / 3, -np.pi / 4)
        np.testing.assert_allclose(
            t.direction, np.sin(np.pi / 3) + np.sin(np.pi / 4), rtol=1e-15
        )

    def test_far_field_target_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            FarFieldTarget(direction=0.4, arrival_rad=np.pi / 3, departure_rad=-np.pi / 4)
        with pytest.raises(ValueError):
            FarFieldTarget(direction=2.5)

    def test_geometry_rejects_coincident_endpoint(self, cfg200):
        with pytest.raises(ValueError, match="coincides"):
            NearFieldGeometry(
                bs_xy=(1.0, 1.0), user_xy=(3.0, 0.0), irs_origin_xy=(1.0, 1.0),
                array=IrsArray.half_wavelength(cfg200, 8),
            )

    def test_element_positions_step_by_spacing(self, geometry64):
        x = geometry64.element_x
        assert x.shape == (64,) and x[0] == 1.0
        np.testing.assert_allclose(np.diff(x), geometry64.array.spacing_m, rtol=1e-12)
        # every element lies on the line y = 1, so a point on it is |dx| away
        np.testing.assert_array_equal(geometry64.element_distances((0.0, 1.0)), x)

    def test_design_summary_is_read_only_copy(self):
        source = {"design_direction": 0.5}
        design = Design(PhaseProfile(np.zeros(4)), None, source)
        source["design_direction"] = 0.0
        assert design.summary == {"design_direction": 0.5}
        with pytest.raises(TypeError):
            design.summary["design_direction"] = 0.1
        with pytest.raises(dataclasses.FrozenInstanceError):
            design.summary = {}

    def test_phase_only_designs_have_no_delays(self, array64, cfg200, geometry64):
        for use_dam in (False, True):
            for design in (far_design(array64, cfg200, 0.5, use_dam),
                           near_design(geometry64, cfg200, use_dam)):
                assert isinstance(design, Design)
                if use_dam:
                    assert isinstance(design.delays, DelayProfile)
                else:
                    assert design.delays is None
                with pytest.raises(TypeError):
                    design.summary["extra"] = 1


class TestGainMap:
    def test_shape_and_bounds_validated(self):
        ax = Axis("subcarrier", "index", np.arange(3))
        with pytest.raises(ValueError, match="shape"):
            GainMap(axes=(ax,), values=np.zeros(4))
        with pytest.raises(ValueError, match="non-negative"):
            GainMap(axes=(ax,), values=np.array([0.1, -0.2, 0.3]))
        with pytest.raises(ValueError, match="exceed"):
            GainMap(axes=(ax,), values=np.array([0.1, 1.5, 0.3]))

    def test_argmax_tie_breaks_row_major(self):
        axes = (Axis("x", "m", np.arange(2)), Axis("y", "m", np.arange(2)))
        gm = GainMap(axes=axes, values=np.array([[0.5, 1.0], [1.0, 0.5]]))
        assert gm.argmax_cell() == (0, 1)
