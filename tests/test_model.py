import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from irsbeam import (
    SPEED_OF_LIGHT,
    Axis,
    DelayProfile,
    Design,
    GainMap,
    IrsArray,
    NearFieldGeometry,
    PhaseProfile,
    WidebandConfig,
    far_beam_gain_profile,
    far_dam_design,
    far_optimal_phases,
    near_dam_design,
    near_gain_row,
    near_optimal_phases,
    subcarrier_frequencies,
)
from irsbeam.model import KERNEL_CHUNK, TWO_PI, _element_weights, resolve_subcarrier
from irsbeam.scan import _subcarrier_rows, angle_sweep, location_heatmap, make_design
from oracles import hypot_distances


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
        rows, freqs = _subcarrier_rows(cfg200, [0, 1, 128, -1])
        assert rows == [0, 1, 128, 128]
        assert freqs.tolist() == [cfg200.carrier_hz, f[0], f[-1], f[-1]]
        for bad in (-2, 129):
            with pytest.raises(ValueError) as want:
                resolve_subcarrier(cfg200, bad)
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                _subcarrier_rows(cfg200, [1, bad])

    @pytest.mark.parametrize("bad", [True, np.True_, 1.5, np.float64(2.0), "1"])
    def test_selector_must_be_an_integer(self, cfg200, array64, bad):
        # a bool would be taken as row 1, a float end in numpy's IndexError
        message = re.escape(f"subcarrier index must be an integer, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            resolve_subcarrier(cfg200, bad)
        with pytest.raises(ValueError, match=message):
            angle_sweep(array64, cfg200, far_optimal_phases(array64, 0.5), subcarriers=(bad,))
        assert resolve_subcarrier(cfg200, np.int64(-1)) == 128


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
        g = far_beam_gain_profile(array, cfg200, [150e9], [0.7], PhaseProfile(np.array([1.3])))
        np.testing.assert_allclose(g, 1.0, rtol=1e-15)

    def test_second_entry_at_carrier_half_direction(self, cfg200):
        # entry 2 is exp(-j pi (1 + 1) 0.5) = -1, which cancels entry 1
        array = IrsArray.half_wavelength(cfg200, 2)
        g = far_beam_gain_profile(array, cfg200, [200e9], [0.5], PhaseProfile(np.zeros(2)))[0, 0]
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
            g = far_beam_gain_profile(array64, cfg200, [f], [nu], phases)[0, 0]
            np.testing.assert_allclose(g, 64.0, rtol=1e-12)

    def test_conjugate_symmetry(self, array64, cfg200):
        # a(-nu) = conj(a(nu)): flipping nu and every phase leaves the gain
        raw = np.random.default_rng(13).uniform(0, 2 * np.pi, 64)
        g_pos = far_beam_gain_profile(array64, cfg200, [197e9], [0.8], PhaseProfile(raw))[0, 0]
        g_neg = far_beam_gain_profile(array64, cfg200, [197e9], [-0.8], PhaseProfile(-raw))[0, 0]
        np.testing.assert_allclose(g_neg, g_pos, rtol=1e-12)

    @pytest.mark.parametrize("freq,nu", [(np.nan, 0.5), (np.inf, 0.5), (-1e9, 0.5),
                                         (200e9, np.nan), (200e9, -np.inf)])
    def test_rejects_bad_inputs(self, array64, cfg200, freq, nu):
        # any finite direction is accepted: angle sweeps run past |nu| = 2
        with pytest.raises(ValueError, match="freq_hz" if nu == 0.5 else "direction"):
            far_beam_gain_profile(array64, cfg200, [freq], [nu], PhaseProfile(np.zeros(64)))


class TestNearSteeringVector:
    """The spherical path phase (2 pi / lambda_c)(1 + f/f_c)(d_r^BR + d_r^target),
    observed through the gain."""

    def test_reference_distances(self, geometry64):
        # within 4 u of the np.hypot oracle (u = 2**-53; see its docstring)
        for leg, point in ((geometry64.bs_distances, geometry64.bs_xy),
                           (geometry64.user_distances, geometry64.user_xy)):
            np.testing.assert_allclose(leg, hypot_distances(geometry64, point), rtol=2**-51)

    def test_unit_modulus(self, geometry64, cfg200):
        # phases conjugate to the path phase at (f, target) co-phase all R elements
        f, target = 197e9, (2.0, 0.5)
        path = geometry64.bs_distances + hypot_distances(geometry64, target)
        k = 2 * np.pi / cfg200.wavelength_m
        phases = PhaseProfile(k * (1 + f / cfg200.carrier_hz) * path)
        g = near_gain_row(geometry64, cfg200, f, [target], phases)[0]
        np.testing.assert_allclose(g, 64.0, rtol=1e-9)

    def test_coincident_target_rejected(self, geometry64, cfg200):
        phases = PhaseProfile(np.zeros(64))
        with pytest.raises(ValueError, match="coincides"):
            near_gain_row(geometry64, cfg200, 200e9, [(1.0, 1.0)], phases)
        on_element = (geometry64.element_x[5], 1.0)
        with pytest.raises(ValueError, match=r"point \(.*\) coincides"):
            near_gain_row(geometry64, cfg200, 200e9, [(2.0, 0.0), on_element], phases)
        # a heatmap cell on the first element, which the grid's rows and cells
        # must catch without a list of the cells: at R = 64 in the one chunk, and
        # at R = 2048, where a chunk holds 8 of the 5 x 5 cells, as flat cell 18
        # in the third chunk, which starts in the middle of x row 3, so that its
        # x must come from the chunk's row offset; the kernel leaves the caller's
        # numpy ufunc buffer size as it found it, also when a chunk raises
        assert KERNEL_CHUNK // 2048 == 8
        message = r"point \(1.0, 1.0\) coincides with an IRS element"
        with np.errstate():
            np.setbufsize(4096)
            for user_xy, array in (
                ((1.0, 1.5), geometry64.array),
                ((0.75, 0.75), IrsArray.half_wavelength(cfg200, 2048)),
            ):
                geom = NearFieldGeometry((0.0, 0.0), user_xy, (1.0, 1.0), array)
                for use_dam in (False, True):
                    with pytest.raises(ValueError, match=message):
                        location_heatmap(geom, cfg200, use_dam=use_dam, half_span_m=0.5,
                                         step_m=0.25)
                    assert np.getbufsize() == 4096

    def test_matches_longhand_phase(self, geometry64, cfg200):
        f = 199e9
        target = (2.5, -0.25)
        phases = PhaseProfile(np.random.default_rng(17).uniform(0, 2 * np.pi, 64))
        d_bs = hypot_distances(geometry64, geometry64.bs_xy)
        d_t = hypot_distances(geometry64, target)
        expected = np.abs(np.sum(np.exp(1j * (
            phases.phases
            - (2 * np.pi / cfg200.wavelength_m) * (1 + f / cfg200.carrier_hz) * (d_bs + d_t)
        ))))
        g = near_gain_row(geometry64, cfg200, f, [target], phases)[0]
        np.testing.assert_allclose(g, expected, rtol=1e-10)

    @pytest.mark.parametrize("freq", [np.nan, np.inf, -1e9, [200e9, np.nan]])
    def test_rejects_bad_frequencies(self, geometry64, cfg200, freq):
        with pytest.raises(ValueError, match="freq_hz"):
            near_gain_row(geometry64, cfg200, freq, [(3.0, 0.0)], PhaseProfile(np.zeros(64)))

    # a bare point would read as two 1-D points, and a third column would be dropped
    @pytest.mark.parametrize("targets", [(3.0, 0.0), [[3.0, 0.0, 1.0]]], ids=["bare", "xyz"])
    def test_rejects_targets_not_shaped_n_by_2(self, geometry64, cfg200, targets):
        message = re.escape(f"shape (N, 2), got {np.shape(targets)}")
        with pytest.raises(ValueError, match=message):
            near_gain_row(geometry64, cfg200, 200e9, targets, PhaseProfile(np.zeros(64)))


def test_empty_target_lists_give_empty_results(array64, geometry64, cfg200):
    """No targets give no gains, in the shapes a non-empty list would have,
    from both kernels."""
    none = np.empty((0, 2))
    phases = PhaseProfile(np.zeros(64))
    freqs = subcarrier_frequencies(cfg200)[:3]
    assert near_gain_row(geometry64, cfg200, 200e9, none, phases).shape == (0,)
    assert near_gain_row(geometry64, cfg200, freqs, none, phases).shape == (3, 0)
    assert far_beam_gain_profile(array64, cfg200, freqs, [], phases).shape == (3, 0)


def test_dam_weights_hold_at_most_one_float_block_beyond_their_output():
    """A DAM block's weights exp(j [phi_r - 2 pi f tau_r]) are formed in their own
    complex output: beyond it a call holds at most one (F, R) float array (here
    128 KiB, more than numpy's 64 KiB iterator buffer), plus 4 KiB for the
    interpreter's objects. An exponent built from broadcast products holds two."""
    rng = np.random.default_rng(7)
    n_freqs, n_elements = 16, 1024
    freqs = rng.uniform(197e9, 203e9, n_freqs)
    phases = PhaseProfile(rng.uniform(0.0, TWO_PI, n_elements))
    delays = DelayProfile(rng.uniform(0.0, 1e-10, n_elements))
    _element_weights(freqs, phases, delays)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        weights = _element_weights(freqs, phases, delays)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    want = np.exp(1j * (phases.phases - TWO_PI * freqs[:, None] * delays.delays))
    np.testing.assert_allclose(weights, want, rtol=0, atol=1e-12)
    assert peak - weights.nbytes <= 8 * n_freqs * n_elements + 4096


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

    @pytest.mark.parametrize("profile,kind", [(PhaseProfile, "phases"), (DelayProfile, "delays")])
    @pytest.mark.parametrize("values,fault", [
        (np.empty(0), "a non-empty 1-D vector"),
        (np.zeros((2, 2)), "a non-empty 1-D vector"),
        (np.array([0.0, np.nan]), "finite"),
        (np.array([np.inf, 0.0]), "finite"),
    ], ids=["empty", "2-d", "nan", "inf"])
    def test_profiles_reject_malformed_values(self, profile, kind, values, fault):
        with pytest.raises(ValueError, match=re.escape(f"{kind} must be {fault}")):
            profile(values)

    def test_delay_profile_leaves_its_input_writable(self):
        delays = np.zeros(3)
        profile = DelayProfile(delays)
        delays[0] = 1.0
        assert profile.delays[0] == 0.0

    def test_axis_leaves_its_input_writable(self):
        points = np.zeros(3)
        axis = Axis("x", "m", points)
        points[0] = 1.0
        assert axis.points[0] == 0.0

    def test_gain_map_leaves_its_input_writable(self):
        axes = (Axis("i", "", np.arange(3)),)
        values = np.zeros(3)
        gain_map = GainMap(axes, values)
        values[0] = 1.0
        assert gain_map.values[0] == 0.0
        # a read-only array, as every sweep hands over its fresh output, is kept uncopied
        values.flags.writeable = False
        assert GainMap(axes, values).values is values

    def test_delay_profile_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            DelayProfile(np.array([1e-12, -1e-12]))

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
        # every element lies on the line y = 1, so a BS on it is |dx| away
        geom = NearFieldGeometry((0.0, 1.0), geometry64.user_xy, (1.0, 1.0), geometry64.array)
        np.testing.assert_array_equal(geom.bs_distances, x)

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
        # make_design is the one switch over the four public designs: for both
        # kinds of link it returns each of them, byte for byte, with its summary
        far_dam = far_dam_design(array64, cfg200, 0.5)
        near_dam = near_dam_design(geometry64, cfg200)
        public = {
            (0.5, False): (far_optimal_phases(array64, 0.5), None, {"design_direction": 0.5}),
            (0.5, True): (far_dam.phases, far_dam.delays, far_dam.summary),
            (geometry64, False): (near_optimal_phases(geometry64, cfg200), None,
                                  {"focus_xy": geometry64.user_xy}),
            (geometry64, True): (near_dam.phases, near_dam.delays, near_dam.summary),
        }
        for (link, use_dam), (phases, delays, summary) in public.items():
            design = make_design(array64, cfg200, link, use_dam)
            assert isinstance(design, Design)
            assert design.phases.phases.tobytes() == phases.phases.tobytes()
            if use_dam:
                assert isinstance(design.delays, DelayProfile)
                assert design.delays.delays.tobytes() == delays.delays.tobytes()
            else:
                assert design.delays is None
            assert design.summary == summary
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
        with pytest.raises(ValueError, match="NaN"):
            GainMap(axes=(ax,), values=np.array([np.nan, 0.5, 0.3]))

    def test_argmax_tie_breaks_row_major(self):
        axes = (Axis("x", "m", np.arange(2)), Axis("y", "m", np.arange(2)))
        gm = GainMap(axes=axes, values=np.array([[0.5, 1.0], [1.0, 0.5]]))
        assert gm.argmax_cell() == (0, 1)
