import math

import numpy as np
import pytest

from pulse.errors import DomainError, UsageError
from pulse.radar import (BONES, C_LIGHT, JOINT_NAMES, MOTIONS, RadarConfig, Scatterer,
                         SkeletonMotion, angle_bin, doppler_bin, make_scene,
                         rad_fft, range_bin, range_for_bin, render_frame,
                         render_scene_frame, sin_theta_for_bin, speed_for_bin)


@pytest.fixture
def cfg():
    return RadarConfig(noise_std=0.0)


def scatterer_at_bins(cfg, rb, ab, db, refl=1.0, off=(0.0, 0.0, 0.0)):
    """Build a scatterer whose range/angle/Doppler map to the given bins,
    optionally offset by fractions of a bin along each axis."""
    r = range_for_bin(rb + off[0], cfg)
    sin_t = sin_theta_for_bin(ab + off[1], cfg)
    v = speed_for_bin(db + off[2], cfg)
    pos = np.array([r * sin_t, r * math.sqrt(1.0 - sin_t ** 2), 0.0])
    return Scatterer(pos, v, refl)


# ---------------------------------------------------------------------------
# rad_fft scale

@pytest.mark.parametrize("n_elem", [16, 4], ids=["unpadded", "zero_padded"])
def test_rad_fft_preserves_energy(n_elem):
    # Uncropped cube: every transform is orthonormal, including the element
    # axis zero-padded from n_elem to A, so the output energy equals the input's.
    rng = np.random.default_rng(2)
    shape = (32, 8, n_elem)
    cube = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = rad_fft(cube, R=32, A=16, D=8)
    before = float(np.sum(np.abs(cube) ** 2))
    after = float(np.sum(out ** 2))
    assert abs(after - before) / before < 1e-9


# ---------------------------------------------------------------------------
# Bin mapping

def test_zero_velocity_maps_to_center(cfg):
    assert doppler_bin(0.0, cfg) == cfg.D // 2


def test_boresight_maps_to_center(cfg):
    assert angle_bin(0.0, cfg) == cfg.A // 2


def test_bin_inverses_round_trip(cfg):
    for rb in (0, 5, 17, cfg.R - 1):
        assert range_bin(range_for_bin(rb, cfg), cfg) == rb
    for db in (0, 3, cfg.D // 2, cfg.D - 1):
        assert doppler_bin(speed_for_bin(db, cfg), cfg) == db
    for ab in (0, 9, cfg.A // 2, cfg.A - 1):
        assert angle_bin(math.asin(sin_theta_for_bin(ab, cfg)), cfg) == ab


def test_out_of_span_rejected(cfg):
    with pytest.raises(DomainError):
        range_bin(cfg.max_range_m + 1.0, cfg)
    with pytest.raises(DomainError):
        doppler_bin(cfg.max_speed_mps * 1.5, cfg)
    with pytest.raises(DomainError):
        range_bin(-0.1, cfg)


# ---------------------------------------------------------------------------
# render_frame

def test_empty_scene_no_noise_is_zero(cfg):
    cube = render_frame([], cfg, seed=0)
    assert np.all(cube == 0.0)


def test_static_scatterer_identical_chirps(cfg):
    sc = scatterer_at_bins(cfg, 10, cfg.A // 2 + 3, cfg.D // 2)
    cube = render_frame([sc], cfg, seed=0)
    for k in range(1, cfg.D):
        np.testing.assert_allclose(cube[:, k, :], cube[:, 0, :], atol=1e-12)


def test_fast_time_peak_at_range_bin_oracle(cfg):
    rb = 12
    sc = scatterer_at_bins(cfg, rb, cfg.A // 2, cfg.D // 2)
    cube = render_frame([sc], cfg, seed=0)
    spectrum = np.abs(np.fft.fft(cube[:, 0, 0]))
    assert int(np.argmax(spectrum)) == rb


def per_scatterer_reference(scatterers, cfg):
    """The noise-free cube as one full complex exp per scatterer, summed."""
    cube = np.zeros((cfg.fast_samples_per_chirp, cfg.chirps_per_frame,
                     cfg.virtual_elements), dtype=np.complex128)
    t_fast = np.arange(cfg.fast_samples_per_chirp) / cfg.fast_sample_rate_hz
    chirp_idx = np.arange(cfg.chirps_per_frame)
    elem_idx = np.arange(cfg.virtual_elements)
    for sc in scatterers:
        r = float(np.linalg.norm(sc.position))
        lateral = math.hypot(sc.position[0], sc.position[1])
        sin_theta = sc.position[0] / lateral if lateral > 0 else 0.0
        beat_hz = 2.0 * cfg.bandwidth_hz * r / (C_LIGHT * cfg.chirp_duration_s)
        doppler_hz = 2.0 * sc.radial_velocity / cfg.wavelength_m
        phase = (beat_hz * t_fast[:, None, None]
                 + doppler_hz * cfg.chirp_duration_s * chirp_idx[None, :, None]
                 + (cfg.element_spacing_m / cfg.wavelength_m) * sin_theta
                 * elem_idx[None, None, :])
        cube += sc.reflectivity * np.exp(2j * np.pi * phase)
    return cube


def test_render_frame_matches_per_scatterer_reference(cfg):
    # the separable product equals the per-point sum to round-off: 1e-12 of
    # the cube's peak magnitude (the two differ by at most 6e-15 of it here)
    scene = make_scene(cfg, seed=21, motion="wave", clutter=True)
    overhead = Scatterer(np.array([0.0, 0.0, 1.2]), 0.4, 0.9)     # lateral == 0
    cases = [scene.scatterers_at(t) for t in (0.0, 1.7, 23.4)]
    cases += [[overhead], scene.scatterers_at(0.5)[:5] + [overhead], []]
    for scatterers in cases:
        got = render_frame(scatterers, cfg, seed=0)
        want = per_scatterer_reference(scatterers, cfg)
        assert got.shape == want.shape
        peak = max(np.abs(want).max(), 1.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * peak)


def einsum_reference(scatterers, cfg):
    """The noise-free cube as np.einsum(..., optimize=True) over the three
    phase tables: the contraction render_frame ran before its fixed order."""
    pos = np.array([sc.position for sc in scatterers], dtype=np.float64).reshape(-1, 3)
    speed = np.array([sc.radial_velocity for sc in scatterers], dtype=np.float64)
    refl = np.array([sc.reflectivity for sc in scatterers], dtype=np.float64)
    beat_hz = (2.0 * cfg.bandwidth_hz * np.linalg.norm(pos, axis=1)
               / (C_LIGHT * cfg.chirp_duration_s))
    lateral = np.hypot(pos[:, 0], pos[:, 1])
    sin_theta = np.divide(pos[:, 0], lateral, out=np.zeros_like(lateral),
                          where=lateral > 0)
    doppler_hz = 2.0 * speed / cfg.wavelength_m
    t_fast = np.arange(cfg.fast_samples_per_chirp) / cfg.fast_sample_rate_hz
    chirp_idx = np.arange(cfg.chirps_per_frame)
    elem_idx = np.arange(cfg.virtual_elements)
    fast = np.exp(2j * np.pi * (beat_hz[:, None] * t_fast))
    chirp = np.exp(2j * np.pi * (doppler_hz[:, None] * cfg.chirp_duration_s * chirp_idx))
    elem = np.exp(2j * np.pi * ((cfg.element_spacing_m / cfg.wavelength_m)
                                * sin_theta[:, None] * elem_idx))
    return np.einsum("s,sf,sc,se->fce", refl, fast, chirp, elem, optimize=True)


def random_scatterers(cfg, rng, n):
    """n scatterers spread over the range, azimuth and Doppler span."""
    r = rng.uniform(0.2, 0.9, n) * cfg.max_range_m
    sin_t = rng.uniform(-0.9, 0.9, n)
    elevation = rng.uniform(-0.4, 0.4, n)
    pos = r[:, None] * np.stack([sin_t * np.cos(elevation),
                                 np.sqrt(1.0 - sin_t ** 2) * np.cos(elevation),
                                 np.sin(elevation)], axis=1)
    speed = rng.uniform(-0.9, 0.9, n) * cfg.max_speed_mps
    return [Scatterer(p, v, a) for p, v, a in
            zip(pos, speed.tolist(), rng.uniform(0.5, 1.5, n).tolist())]


_DESK = RadarConfig(noise_std=0.0)
_FULL = RadarConfig(R=64, A=64, noise_std=0.0)
_PIPELINE = RadarConfig(R=16, A=16, chirps_per_frame=8, fast_samples_per_chirp=32,
                        virtual_elements=4, bandwidth_hz=0.5e9, noise_std=0.0)
_SQUARE = RadarConfig(chirps_per_frame=8, virtual_elements=8, noise_std=0.0)


@pytest.mark.parametrize("geometry, counts, bitwise", [
    # greedy einsum takes the fixed order: the bytes are einsum's
    (_DESK, (2, 7, 22, 48, 63, 64), True),
    (_FULL, (2, 22, 48, 64), True),
    (_PIPELINE, (2, 5, 22, 48, 100, 300), True),
    # greedy takes another order, or (one scatterer) multiplies where the
    # fixed order runs a matmul: round-off of the cube's peak
    (_DESK, (1, 65, 100, 200), False),
    (_SQUARE, (1, 22, 48, 100), False),
], ids=["desk", "full", "pipeline", "desk_other", "chirps_equal_elements"])
def test_render_frame_contracts_as_greedy_einsum(geometry, counts, bitwise):
    rng = np.random.default_rng(31)
    for n in counts:
        scatterers = random_scatterers(geometry, rng, n)
        got = render_frame(scatterers, geometry, seed=0)
        want = einsum_reference(scatterers, geometry)
        assert got.shape == want.shape
        if bitwise:
            assert got.tobytes() == want.tobytes(), n
        else:
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("axis", ["range", "speed"])
def test_render_frame_span_check_covers_every_scatterer(cfg, axis):
    inside = [scatterer_at_bins(cfg, rb, cfg.A // 2 + 2, cfg.D // 2 + 1)
              for rb in (3, 8, 14)]
    bad, match = {
        "range": (Scatterer([0.0, cfg.max_range_m + 0.2, 0.3], 0.1, 1.0), " m is beyond"),
        "speed": (Scatterer(inside[0].position, 1.2 * cfg.max_speed_mps, 1.0),
                  "exceeds unambiguous span"),
    }[axis]
    with pytest.raises(DomainError, match=match):
        render_frame(inside[:2] + [bad] + inside[2:], cfg, seed=0)
    render_frame(inside, cfg, seed=0)


def test_noise_deterministic_for_seed(cfg_noise=RadarConfig(noise_std=0.5)):
    a = render_frame([], cfg_noise, seed=[7, 1, 2])
    b = render_frame([], cfg_noise, seed=[7, 1, 2])
    np.testing.assert_array_equal(a, b)
    c = render_frame([], cfg_noise, seed=[7, 1, 3])
    assert not np.array_equal(a, c)
    # the noise is one Philox stream: the real parts' draws, then the imaginary
    # parts', each scaled by noise_std and added to the noise-free cube
    scatterers = make_scene(cfg_noise, seed=3, motion="walk").scatterers_at(0.4)
    quiet = render_frame(scatterers, RadarConfig(noise_std=0.0), seed=0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([7, 1, 2])))
    quiet.real += 0.5 * rng.standard_normal(quiet.shape)
    quiet.imag += 0.5 * rng.standard_normal(quiet.shape)
    noisy = render_frame(scatterers, cfg_noise, seed=[7, 1, 2])
    assert noisy.tobytes() == quiet.tobytes()


# ---------------------------------------------------------------------------
# rad_fft

def test_zero_cube_zero_tensor(cfg):
    cube = np.zeros((cfg.fast_samples_per_chirp, cfg.D, cfg.virtual_elements),
                    dtype=complex)
    out = rad_fft(cube, cfg.R, cfg.A, cfg.D)
    assert out.shape == (cfg.R, cfg.A, cfg.D)
    assert np.all(out == 0.0)


def test_static_scatterer_energy_in_center_doppler(cfg):
    sc = scatterer_at_bins(cfg, 9, 20, cfg.D // 2)
    out = rad_fft(render_frame([sc], cfg, seed=0), cfg.R, cfg.A, cfg.D)
    r, a, d = np.unravel_index(np.argmax(out), out.shape)
    assert d == cfg.D // 2
    spectrum = out[r, a, :]
    assert spectrum[cfg.D // 2] > 100 * np.max(np.delete(spectrum, cfg.D // 2))


def test_single_scatterer_argmax_matches_bin_oracles(cfg):
    rng = np.random.default_rng(11)
    for _ in range(20):
        rb = int(rng.integers(1, cfg.R - 1))
        ab = int(rng.integers(2, cfg.A - 2))
        db = int(rng.integers(1, cfg.D - 1))
        sc = scatterer_at_bins(cfg, rb, ab, db)
        out = rad_fft(render_frame([sc], cfg, seed=0), cfg.R, cfg.A, cfg.D)
        got = np.unravel_index(np.argmax(out), out.shape)
        want = (range_bin(np.linalg.norm(sc.position), cfg),
                angle_bin(math.asin(sc.position[0] / math.hypot(*sc.position[:2])), cfg),
                doppler_bin(sc.radial_velocity, cfg))
        assert got == (rb, ab, db)
        assert want == (rb, ab, db)


def test_off_center_scatterer_within_one_bin(cfg):
    rng = np.random.default_rng(13)
    for _ in range(10):
        rb = int(rng.integers(2, cfg.R - 2))
        ab = int(rng.integers(3, cfg.A - 3))
        db = int(rng.integers(2, cfg.D - 2))
        off = rng.uniform(-0.45, 0.45, size=3)
        sc = scatterer_at_bins(cfg, rb, ab, db, off=tuple(off))
        out = rad_fft(render_frame([sc], cfg, seed=0), cfg.R, cfg.A, cfg.D)
        r, a, d = np.unravel_index(np.argmax(out), out.shape)
        assert abs(r - rb) <= 1 and abs(a - ab) <= 1 and abs(d - db) <= 1


def test_two_scatterer_linearity_at_peaks(cfg):
    s1 = scatterer_at_bins(cfg, 6, 10, 4)
    s2 = scatterer_at_bins(cfg, 20, 24, 12)
    out1 = rad_fft(render_frame([s1], cfg, seed=0), cfg.R, cfg.A, cfg.D)
    out2 = rad_fft(render_frame([s2], cfg, seed=0), cfg.R, cfg.A, cfg.D)
    both = rad_fft(render_frame([s1, s2], cfg, seed=0), cfg.R, cfg.A, cfg.D)
    for peak, single in (((6, 10, 4), out1), ((20, 24, 12), out2)):
        assert abs(both[peak] - single[peak]) / single[peak] < 0.01


def test_rad_fft_rejects_incompatible_targets(cfg):
    cube = np.zeros((8, 4, 2), dtype=complex)
    with pytest.raises(UsageError):
        rad_fft(cube, 16, 4, 4)


# ---------------------------------------------------------------------------
# Skeleton synthesis

def skeleton_sequence(seed, frames, motion, frame_rate=10.0):
    """(frames, J, 3) mm poses sampled at frame_rate."""
    t = np.arange(frames)[:, None, None] / frame_rate
    return SkeletonMotion(seed, motion).joints_mm(t)


def test_still_motion_constant_poses():
    seq = skeleton_sequence(3, 10, "still")
    assert seq.shape == (10, len(JOINT_NAMES), 3)
    for t in range(1, 10):
        np.testing.assert_array_equal(seq[t], seq[0])


def test_same_seed_same_sequence():
    a = skeleton_sequence(7, 12, "walk")
    b = skeleton_sequence(7, 12, "walk")
    np.testing.assert_array_equal(a, b)
    c = skeleton_sequence(8, 12, "walk")
    assert not np.array_equal(a, c)
    # one time at a time gives the same poses
    motion = SkeletonMotion(7, "walk")
    for f in (0, 5, 11):
        np.testing.assert_allclose(motion.joints_mm(f / 10.0), a[f], rtol=0, atol=1e-9)


def test_walk_wrist_displacement_bounded():
    for seed in range(5):
        seq = skeleton_sequence(seed, 64, "walk")
        wrists = seq[:, [JOINT_NAMES.index("wrist_l"), JOINT_NAMES.index("wrist_r")], :]
        step = np.linalg.norm(np.diff(wrists, axis=0), axis=-1)
        assert step.max() < 100.0  # mm per frame at 10 Hz


def test_unknown_motion_rejected():
    with pytest.raises(UsageError):
        SkeletonMotion(0, "moonwalk")


# ---------------------------------------------------------------------------
# Scene / multipath / frame locality

def test_scene_ghosts_weaker_than_sources(cfg):
    scene = make_scene(cfg, seed=5, motion="walk", clutter=True)
    scats = scene.scatterers_at(0.0)
    n_body = len(scene.body_reflectivities)
    body = scats[:n_body]
    ghosts = scats[n_body:2 * n_body]
    for src, ghost in zip(body, ghosts):
        assert ghost.reflectivity < src.reflectivity


def test_scene_scatterers_inside_span(cfg):
    scene = make_scene(cfg, seed=9, motion="wave", clutter=True)
    for t in (0.0, 0.7, 1.9):
        for sc in scene.scatterers_at(t):
            assert np.linalg.norm(sc.position) < cfg.max_range_m
            assert abs(sc.radial_velocity) < cfg.max_speed_mps


def test_scene_matches_per_point_reference(cfg):
    """48 scatterers in the order body, ghosts, clutter, fan, against the
    per-bone loop and per-point central difference the arrays replace."""
    scene = make_scene(cfg, seed=11, motion="walk")
    base, direction, amp, freq, phase, fan_refl = scene.oscillator

    def points(t):
        j = scene.motion.joints_m(t)
        body = [j[0]] + [j[a] + frac * (j[b] - j[a])
                         for a, b in BONES for frac in (0.2, 0.5, 0.8)]
        ghost = [np.array([2.0 * scene.mirror_x - p[0], p[1], p[2]]) for p in body]
        return np.array(body + ghost)

    def fan(t):
        return base + direction * amp * math.sin(2.0 * math.pi * freq * t + phase)

    for t in (0.0, 0.7, 12.3):
        scats = scene.scatterers_at(t)
        assert len(scats) == 48
        moving, clutter = scats[:44], scats[44:47]
        np.testing.assert_array_equal([sc.position for sc in moving], points(t))
        speed = -(np.linalg.norm(points(t + 1e-3), axis=-1)
                  - np.linalg.norm(points(t - 1e-3), axis=-1)) / 2e-3
        np.testing.assert_array_equal([sc.radial_velocity for sc in moving], speed)
        refl = scene.body_reflectivities
        np.testing.assert_array_equal([sc.reflectivity for sc in moving],
                                      np.concatenate([refl, 0.3 * refl]))
        np.testing.assert_array_equal([sc.position for sc in clutter], scene.clutter_positions)
        assert [sc.radial_velocity for sc in clutter] == [0.0] * 3
        np.testing.assert_allclose(scats[-1].position, fan(t), rtol=0, atol=1e-12)
        fan_speed = -(np.linalg.norm(fan(t + 1e-3)) - np.linalg.norm(fan(t - 1e-3))) / 2e-3
        np.testing.assert_allclose(scats[-1].radial_velocity, fan_speed, rtol=0, atol=1e-9)
        assert scats[-1].reflectivity == fan_refl
    # the span check's (T, N, 3) evaluation agrees with one time at a time
    times = np.array([0.0, 0.7, 12.3])
    for k, t in enumerate(times):
        np.testing.assert_allclose(scene.moving_points(times)[k], scene.moving_points(t),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("clutter", [True, False], ids=["clutter", "no_clutter"])
def test_scene_kinematics_are_the_separate_evaluations(cfg, clutter):
    """One moving_points call on (t, t + dt, t - dt) gives, bit for bit, the
    positions at t and the central difference of three separate calls."""
    def reference(scene, t):
        speed = -(np.linalg.norm(scene.moving_points(t + 1e-3), axis=-1)
                  - np.linalg.norm(scene.moving_points(t - 1e-3), axis=-1)) / 2e-3
        return scene.moving_points(t), speed

    times = np.arange(64) / cfg.frame_rate_hz
    for i, motion in enumerate(MOTIONS * 2):
        scene = make_scene(cfg, seed=80 * 100_003 + i, motion=motion, clutter=clutter)
        for t in times.tolist():
            points, speed = scene.kinematics(t)
            want_points, want_speed = reference(scene, t)
            assert points.tobytes() == want_points.tobytes()
            assert speed.tobytes() == want_speed.tobytes()
            # scatterers_at: body points and ghosts, clutter, then the fan
            scats, fan = scene.scatterers_at(t), int(scene.oscillator is not None)
            moving = scats[:len(points) - fan] + scats[len(scats) - fan:]
            assert np.array([sc.position for sc in moving]).tobytes() == points.tobytes()
            assert [sc.radial_velocity for sc in moving] == speed.tolist()
        # the span check's (T, N, 3) evaluation
        points, speed = scene.kinematics(times)
        want_points, want_speed = reference(scene, times)
        assert points.tobytes() == want_points.tobytes()
        assert speed.tobytes() == want_speed.tobytes()


def test_make_scene_span_check_covers_clutter_and_fan():
    # seed 154, still: the clutter lies farthest out and only the fan moves
    wide = RadarConfig(noise_std=0.0)
    scene = make_scene(wide, seed=154, motion="still")
    n_moving = 2 * len(scene.body_reflectivities)      # body points and ghosts
    frames = [scene.scatterers_at(t) for t in np.linspace(0.0, 30.0, 61)]

    def extent(first, stop, value):
        return max(value(sc) for scats in frames for sc in scats[first:stop])

    def dist(sc):
        return float(np.linalg.norm(sc.position))

    def speed(sc):
        return abs(sc.radial_velocity)

    clutter_r = extent(n_moving, -1, dist)
    other_r = max(extent(0, n_moving, dist), extent(-1, None, dist))
    assert clutter_r > other_r + 0.1
    fan_v = extent(-1, None, speed)
    assert extent(0, -1, speed) == 0.0 and fan_v > 0.5
    # span edge (R - 0.6) range bins halfway between the clutter and the rest
    edge = (clutter_r + other_r) / 2.0
    near = RadarConfig(noise_std=0.0, bandwidth_hz=(wide.R - 0.6) * C_LIGHT / (2.0 * edge))
    with pytest.raises(DomainError, match=r" m exceeds the span"):
        make_scene(near, seed=154, motion="still")
    # speed edge 0.98 * wavelength / (4 T_c) at half the fan's peak speed
    slow = RadarConfig(noise_std=0.0,
                       chirp_duration_s=0.98 * wide.wavelength_m / (2.0 * fan_v))
    with pytest.raises(DomainError, match=r" m/s exceeds the span"):
        make_scene(slow, seed=154, motion="still")


def test_clutter_off_scene_has_only_body(cfg):
    scene = make_scene(cfg, seed=2, motion="walk", clutter=False)
    assert len(scene.scatterers_at(0.3)) == len(scene.body_reflectivities)


def test_frame_rendering_is_frame_local():
    cfg = RadarConfig(noise_std=0.3)
    scene = make_scene(cfg, seed=4, motion="walk")
    tensors = {f: render_scene_frame(scene, f, cfg, noise_seed=[1, 0, f])
               for f in (0, 3, 5)}
    # Re-render in a different order; each frame must be unchanged.
    for f in (5, 0, 3):
        again = render_scene_frame(scene, f, cfg, noise_seed=[1, 0, f])
        np.testing.assert_array_equal(again, tensors[f])
