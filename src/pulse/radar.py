"""FMCW radar simulation at desk scale.

Articulated skeletons move point scatterers through a scene (plus static
clutter, one fan-like oscillating reflector, and mirrored multipath ghosts);
each frame is rendered to a complex intermediate-frequency cube and turned
into a range-angle-Doppler magnitude tensor by three orthonormal numpy FFTs.
A point target's phase is a sum of a fast-time, a chirp and an element term,
so the cube is a separable product of three small per-scatterer phase
tables, equal to the per-point sum up to round-off. render_frame contracts
them in one fixed order (element table times reflectivity, times the chirp
table, then one complex matmul with the fast-time table): the order greedy
np.einsum(..., optimize=True) takes at the repo's geometries, without its
per-call path search.

Conventions: the radar sits at the origin, +y is boresight, +x lateral,
+z up. Ranges use the full 3-D distance, azimuth is measured in the x-y
plane. Doppler and angle axes are fftshifted so zero sits at the center
bin. All FFT sizes are powers of two and carry 1/sqrt(N) scaling
(norm="ortho"), so each transform preserves energy exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import storage
from .errors import ConfigError, DomainError, UsageError

C_LIGHT = 299_792_458.0

JOINT_NAMES = ("head", "torso", "elbow_l", "wrist_l",
               "elbow_r", "wrist_r", "ankle_l", "ankle_r")

BONES = ((0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (1, 7))

MOTIONS = ("walk", "wave", "still", "jitter")


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass
class RadarConfig:
    """Chirp, array, and output-grid parameters.

    The Doppler bin count equals chirps_per_frame; the fast-time FFT is
    cropped to R range bins and the element axis is zero-padded to A.
    """

    carrier_hz: float = 60e9
    bandwidth_hz: float = 1.0e9
    chirp_duration_s: float = 1.0e-3
    chirps_per_frame: int = 16
    fast_samples_per_chirp: int = 64
    virtual_elements: int = 8
    R: int = 32
    A: int = 32
    noise_std: float = 1.0
    frame_rate_hz: float = 10.0

    def __post_init__(self):
        for name in ("R", "virtual_elements"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.R > self.fast_samples_per_chirp:
            raise ConfigError(
                f"R={self.R} exceeds fast_samples_per_chirp={self.fast_samples_per_chirp}")
        if self.A < self.virtual_elements:
            raise ConfigError(
                f"A={self.A} is smaller than virtual_elements={self.virtual_elements}")
        for name in ("chirps_per_frame", "fast_samples_per_chirp", "A"):
            if not _is_pow2(getattr(self, name)):
                raise ConfigError(f"{name} must be a power of two")
        for name in ("carrier_hz", "bandwidth_hz", "chirp_duration_s", "frame_rate_hz"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, "
                                  f"got {getattr(self, name)}")
        if not 0.0 <= self.noise_std < math.inf:
            raise ConfigError(f"noise_std must be nonnegative and finite, "
                              f"got {self.noise_std}")

    @property
    def D(self):
        return self.chirps_per_frame

    @property
    def wavelength_m(self):
        return C_LIGHT / self.carrier_hz

    @property
    def fast_sample_rate_hz(self):
        return self.fast_samples_per_chirp / self.chirp_duration_s

    @property
    def element_spacing_m(self):
        return self.wavelength_m / 2.0

    @property
    def range_per_bin_m(self):
        return C_LIGHT / (2.0 * self.bandwidth_hz)

    @property
    def max_range_m(self):
        """Largest range still inside the cropped tensor."""
        return self.R * self.range_per_bin_m

    @property
    def max_speed_mps(self):
        """Unambiguous radial speed: wavelength / (4 * chirp duration)."""
        return self.wavelength_m / (4.0 * self.chirp_duration_s)


@dataclass
class Scatterer:
    position: np.ndarray           # meters, shape (3,)
    radial_velocity: float         # m/s, positive toward the radar
    reflectivity: float            # linear amplitude

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)
        if self.reflectivity < 0:
            raise DomainError(f"reflectivity must be >= 0, got {self.reflectivity}")


# ---------------------------------------------------------------------------
# Bin mapping oracles.

def range_bin(range_m, cfg):
    """Fast-time DFT bin for a scatterer at the given range."""
    if range_m < 0:
        raise DomainError(f"range must be nonnegative, got {range_m}")
    beat_hz = 2.0 * cfg.bandwidth_hz * range_m / (C_LIGHT * cfg.chirp_duration_s)
    pos = beat_hz / cfg.fast_sample_rate_hz * cfg.fast_samples_per_chirp
    if pos >= cfg.R - 0.5:
        raise DomainError(
            f"range {range_m} m is beyond the cropped span ({cfg.max_range_m:.3f} m)")
    return min(cfg.R - 1, max(0, int(round(pos))))


def doppler_bin(v_mps, cfg):
    """Slow-time DFT bin (fftshifted, zero-Doppler at D/2) for radial speed."""
    if abs(v_mps) > cfg.max_speed_mps:
        raise DomainError(
            f"|v|={abs(v_mps)} m/s exceeds unambiguous span {cfg.max_speed_mps:.3f} m/s")
    pos = (2.0 * v_mps / cfg.wavelength_m) * cfg.chirp_duration_s * cfg.D
    return min(cfg.D - 1, max(0, cfg.D // 2 + int(round(pos))))


def angle_bin(theta_rad, cfg):
    """Element-axis DFT bin (fftshifted, boresight at A/2) for azimuth."""
    s = math.sin(theta_rad)
    if abs(s) > 1.0:
        raise DomainError(f"invalid azimuth {theta_rad}")
    pos = (cfg.element_spacing_m / cfg.wavelength_m) * s * cfg.A
    return min(cfg.A - 1, max(0, cfg.A // 2 + int(round(pos))))


def range_for_bin(k, cfg):
    return k * cfg.range_per_bin_m


def speed_for_bin(k, cfg):
    return (k - cfg.D // 2) * cfg.wavelength_m / (2.0 * cfg.chirp_duration_s * cfg.D)


def sin_theta_for_bin(k, cfg):
    return (k - cfg.A // 2) / (cfg.A * cfg.element_spacing_m / cfg.wavelength_m)


# ---------------------------------------------------------------------------
# Frame rendering and the three-FFT pipeline.

def render_frame(scatterers, cfg, seed=0):
    """Sum point-target returns into a complex IF cube.

    Each scatterer contributes
        a * exp(i 2 pi [f_b t_fast + f_d T_c k + (m d / lambda) sin(theta)])
    with f_b = 2 B r / (c T_c) and f_d = 2 v_r / lambda, followed by
    complex Gaussian noise (per-component std = noise_std) when enabled.
    The phase is a sum of a fast-time, a chirp and an element term, so the
    exponential factors: the noise-free cube is
        einsum('s,sf,sc,se->fce', a, F, C, E)
    over three per-scatterer tables F (S x fast samples), C (S x chirps)
    and E (S x elements), equal to the per-point sum up to round-off. It is
    contracted in one fixed order: E.T * a, times C.T, then one complex
    matmul over the scatterers with F. That is greedy
    np.einsum(..., optimize=True) bit for bit at 64 fast samples, 16 chirps
    and 8 elements with 2 to 64 scatterers, and at 32/8/4 with 2 or more.
    Elsewhere greedy orders the products differently (chirps == elements,
    more scatterers) or skips the matmul (one scatterer), and the two
    differ at round-off.
    Every scatterer is checked against the range and Doppler span first;
    the first one outside raises DomainError through range_bin/doppler_bin.
    Output shape: (fast_samples, chirps, elements).
    """
    shape = (cfg.fast_samples_per_chirp, cfg.chirps_per_frame, cfg.virtual_elements)
    pos = np.array([sc.position for sc in scatterers], dtype=np.float64).reshape(-1, 3)
    speed = np.array([sc.radial_velocity for sc in scatterers], dtype=np.float64)
    refl = np.array([sc.reflectivity for sc in scatterers], dtype=np.float64)
    r = np.linalg.norm(pos, axis=1)
    beat_hz = 2.0 * cfg.bandwidth_hz * r / (C_LIGHT * cfg.chirp_duration_s)
    # range_bin's and doppler_bin's tests, negated so a NaN also counts as out
    outside = ~((beat_hz / cfg.fast_sample_rate_hz * cfg.fast_samples_per_chirp
                 < cfg.R - 0.5) & (np.abs(speed) <= cfg.max_speed_mps))
    if outside.any():
        first = int(np.argmax(outside))
        range_bin(float(r[first]), cfg)
        doppler_bin(float(speed[first]), cfg)
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
    # (elements, chirps, S) products, then (elements * chirps, S) @ (S, fast),
    # copied to row-major (fast, chirps, elements): the noise adds and
    # rad_fft run faster on the copy than on the transposed matmul result
    n_fast, n_chirps, n_elem = shape
    products = (elem.T * refl)[:, None, :] * chirp.T
    cube = np.ascontiguousarray(
        (products.reshape(n_elem * n_chirps, len(refl)) @ fast)
        .reshape(n_elem, n_chirps, n_fast).transpose(2, 1, 0))
    if cfg.noise_std > 0:
        entropy = [int(seed)] if np.isscalar(seed) else [int(s) for s in seed]
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
        noise = rng.standard_normal((2, *shape))
        noise *= cfg.noise_std
        cube.real += noise[0]
        cube.imag += noise[1]
    return cube


def rad_fft(cube, R, A, D):
    """IF cube -> nonnegative (R, A, D) magnitude tensor.

    Fast-time FFT then crop to the first R range bins; slow-time FFT across
    the first D chirps, fftshifted so zero Doppler is bin D/2; element FFT
    zero-padded to A, fftshifted so boresight is bin A/2.
    """
    cube = np.asarray(cube, dtype=np.complex128)
    n_fast, n_chirps, n_elem = cube.shape
    if n_fast < R or n_chirps < D or n_elem > A:
        raise UsageError(
            f"cube shape {cube.shape} incompatible with targets R={R} A={A} D={D}")
    x = np.fft.fft(cube, axis=0, norm="ortho")[:R, :D]
    x = np.fft.fft(x, axis=1, norm="ortho")
    x = np.fft.fft(x, n=A, axis=2, norm="ortho")
    return np.abs(np.transpose(np.fft.fftshift(x, axes=(1, 2)), (0, 2, 1)))


# ---------------------------------------------------------------------------
# Skeleton synthesis.

# Rest pose relative to the body center (cx, cy, 0), in JOINT_NAMES order.
_REST_POSE = np.array([(0.0, 0.0, 1.55), (0.0, 0.0, 1.05),
                       (-0.25, 0.0, 1.15), (-0.32, 0.04, 0.9),
                       (0.25, 0.0, 1.15), (0.32, 0.04, 0.9),
                       (-0.12, 0.0, 0.08), (0.12, 0.0, 0.08)])


class SkeletonMotion:
    """Seeded parametric joint trajectories for one sequence (meters): each
    joint axis is base + amp * sin(2 pi freq t + phase), all four (J, 3)."""

    def __init__(self, seed, motion):
        if motion not in MOTIONS:
            raise UsageError(f"unknown motion {motion!r}; expected one of {MOTIONS}")
        self.motion = motion
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 101]))
        # small placement jitter: sub-bin localization varies across scenes
        # while motion phase/amplitude carry the sequence-level diversity
        cx = rng.uniform(-0.08, 0.08)
        cy = rng.uniform(2.1, 2.3)
        self.base = _REST_POSE + (cx, cy, 0.0)
        self.amp, self.freq, self.phase = (np.zeros_like(self.base) for _ in range(3))
        tracks = {}                      # joint name -> (amp, freq, phase)
        if motion == "jitter":
            for name in JOINT_NAMES:
                tracks[name] = (rng.uniform(0.005, 0.015, size=3),
                                rng.uniform(1.5, 3.0, size=3),
                                rng.uniform(0, 2 * np.pi, size=3))
        elif motion == "walk":
            f = rng.uniform(0.5, 0.65)
            arm = rng.uniform(0.14, 0.18)
            leg = rng.uniform(0.08, 0.12)
            sway = 0.03
            phase0 = rng.uniform(0, 2 * np.pi)
            tracks["torso"] = tracks["head"] = (
                (0.0, sway, 0.02), (0.0, f, 2 * f), (0.0, phase0, phase0))
            for side, sgn in (("l", 0.0), ("r", np.pi)):
                tracks[f"elbow_{side}"] = (
                    (0.0, arm / 2, 0.0), (0.0, f, 0.0), (0.0, phase0 + sgn, 0.0))
                tracks[f"wrist_{side}"] = (
                    (0.0, arm, 0.02), (0.0, f, f), (0.0, phase0 + sgn, phase0 + sgn))
                # contralateral leg: in phase with the opposite arm
                tracks[f"ankle_{side}"] = (
                    (0.0, leg, 0.0), (0.0, f, 0.0), (0.0, phase0 + np.pi - sgn, 0.0))
        elif motion == "wave":
            f = rng.uniform(0.9, 1.1)
            phase0 = rng.uniform(0, 2 * np.pi)
            tracks = dict.fromkeys(JOINT_NAMES, (
                (0.0, 0.01, 0.0), (0.0, f / 2, 0.0), (0.0, phase0, 0.0)))
            tracks["wrist_r"] = ((0.02, 0.12, 0.1), (f, f, f),
                                 (phase0, phase0, phase0 + np.pi / 2))
            tracks["elbow_r"] = ((0.01, 0.06, 0.05), (f, f, f),
                                 (phase0, phase0, phase0 + np.pi / 2))
        for name, (amp, freq, phase) in tracks.items():
            j = JOINT_NAMES.index(name)
            self.amp[j], self.freq[j], self.phase[j] = amp, freq, phase

    def joints_m(self, t):
        """(J, 3) joint positions at time t; t of shape (..., 1, 1) gives
        (..., J, 3)."""
        return self.base + self.amp * np.sin(2.0 * np.pi * self.freq * t + self.phase)

    def joints_mm(self, t):
        return self.joints_m(t) * 1000.0


# ---------------------------------------------------------------------------
# Scene: body scatterers + clutter + multipath ghosts.

# Body points: the head, then three points along each bone.
_BONE_FRACTIONS = (0.2, 0.5, 0.8)
_BONE_START, _BONE_END = np.repeat(BONES, len(_BONE_FRACTIONS), axis=0).T
_BONE_FRAC = np.tile(_BONE_FRACTIONS, len(BONES))[:, None]
_VELOCITY_DT = 1e-3
GHOST_ATTENUATION = 0.3


@dataclass
class Scene:
    """Everything render_frame needs, as pure functions of time."""

    motion: SkeletonMotion
    body_reflectivities: np.ndarray
    clutter_positions: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    clutter_reflectivities: np.ndarray = field(default_factory=lambda: np.zeros(0))
    oscillator: tuple | None = None      # (base_pos, unit_dir, amp_m, freq_hz, phase, refl)
    mirror_x: float | None = None        # multipath mirror plane x = mirror_x

    def pose_mm(self, t):
        return self.motion.joints_mm(t)

    def moving_points(self, t):
        """(N, 3) positions of the body points, their mirror ghosts and the
        fan at time t; a 1-D array of T times gives (T, N, 3)."""
        t = np.asarray(t, dtype=np.float64)[..., None, None]
        joints = self.motion.joints_m(t)
        start, end = joints[..., _BONE_START, :], joints[..., _BONE_END, :]
        body = np.concatenate([joints[..., :1, :], start + _BONE_FRAC * (end - start)],
                              axis=-2)
        points = [body]
        if self.mirror_x is not None:
            ghost = body.copy()
            ghost[..., 0] = 2.0 * self.mirror_x - body[..., 0]
            points.append(ghost)
        if self.oscillator is not None:
            base, direction, amp, freq, phase, _ = self.oscillator
            points.append(base + direction * amp * np.sin(2.0 * np.pi * freq * t + phase))
        return np.concatenate(points, axis=-2)

    def kinematics(self, t):
        """Positions of the moving points at time t and their
        positive-toward-radar radial speeds, by a central difference of
        range: ((N, 3), (N,)), or ((T, N, 3), (T, N)) for T times. One
        moving_points call evaluates t, t + dt and t - dt together."""
        points = self.moving_points(np.add.outer((0.0, _VELOCITY_DT, -_VELOCITY_DT), t))
        r_plus, r_minus = np.linalg.norm(points[1:], axis=-1)
        return points[0], -(r_plus - r_minus) / (2.0 * _VELOCITY_DT)

    def scatterers_at(self, t):
        """Body points, ghosts, static clutter, then the fan."""
        refl = [self.body_reflectivities]
        if self.mirror_x is not None:
            refl.append(GHOST_ATTENUATION * self.body_reflectivities)
        if self.oscillator is not None:
            refl.append([self.oscillator[5]])
        points, speeds = self.kinematics(t)
        moving = [Scatterer(p, v, a) for p, v, a in
                  zip(points, speeds.tolist(), np.concatenate(refl).tolist())]
        clutter = [Scatterer(p, 0.0, a) for p, a in
                   zip(self.clutter_positions, self.clutter_reflectivities.tolist())]
        n = len(moving) - (self.oscillator is not None)
        return moving[:n] + clutter + moving[n:]


def make_scene(cfg, seed, motion="walk", clutter=True):
    """Build a seeded scene and verify every scatterer stays inside the
    unambiguous range/Doppler span over a 30 s horizon."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 202]))
    sk = SkeletonMotion(seed, motion)
    n_body = 1 + len(BONES) * len(_BONE_FRACTIONS)
    refl = rng.uniform(0.7, 1.3, size=n_body)
    scene = Scene(motion=sk, body_reflectivities=refl)
    if clutter:
        # x, y, z, reflectivity
        static = np.array([(rng.uniform(-1.4, 1.4), rng.uniform(1.2, 3.4),
                            rng.uniform(0.0, 1.5), rng.uniform(0.5, 1.5))
                           for _ in range(3)])
        scene.clutter_positions, scene.clutter_reflectivities = static[:, :3], static[:, 3]
        fan_base = np.array([rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.3),
                             rng.uniform(1.5, 2.8), rng.uniform(0.5, 1.5)])
        direction = fan_base / np.linalg.norm(fan_base)
        freq = rng.uniform(1.5, 2.5)
        v_amp = 1.0
        scene.oscillator = (fan_base, direction, v_amp / (2.0 * math.pi * freq),
                            freq, rng.uniform(0, 2 * np.pi), rng.uniform(0.8, 1.2))
        scene.mirror_x = rng.uniform(1.05, 1.25)
    points, speeds = scene.kinematics(np.linspace(0.0, 30.0, 61))
    r = np.concatenate([np.linalg.norm(points, axis=-1).ravel(),
                        np.linalg.norm(scene.clutter_positions, axis=-1)])
    if r.max() >= cfg.max_range_m - 0.6 * cfg.range_per_bin_m:
        raise DomainError(f"scene scatterer at {r.max():.2f} m exceeds the span: "
                          f"max_range_m={cfg.max_range_m:.2f}, set by R={cfg.R} and "
                          f"bandwidth_hz={cfg.bandwidth_hz:g}")
    v = np.abs(speeds).max()
    if v >= 0.98 * cfg.max_speed_mps:
        raise DomainError(f"scene scatterer at {v:.2f} m/s exceeds the span: "
                          f"max_speed_mps={cfg.max_speed_mps:.2f}, set by "
                          f"carrier_hz={cfg.carrier_hz:g} and "
                          f"chirp_duration_s={cfg.chirp_duration_s:g}")
    return scene


def render_scene_frame(scene, frame_idx, cfg, noise_seed):
    """RadTensor for one frame of a scene (frame time = index / frame rate)."""
    t = frame_idx / cfg.frame_rate_hz
    cube = render_frame(scene.scatterers_at(t), cfg, seed=noise_seed)
    return rad_fft(cube, cfg.R, cfg.A, cfg.D)


# ---------------------------------------------------------------------------
# Dataset emission

def split_sequences(n, ratios):
    """Deterministic disjoint sequence split. The three ratios are weights,
    divided by their sum. Guarantees at least one train sequence, and a val
    sequence whenever two or more exist; test takes what train and val
    leave, unless its weight is zero: then train does."""
    if n < 1:
        raise UsageError("need at least one sequence")
    if not all(math.isfinite(r) and r >= 0 for r in ratios):
        raise UsageError("--split-ratios must be finite and nonnegative, got "
                         + ",".join(str(r) for r in ratios))
    total = sum(ratios)
    if total == 0:
        raise UsageError("--split-ratios must not all be zero")
    r_train, r_val, r_test = (r / total for r in ratios)
    n_val = min(max(int(round(n * r_val)), int(n >= 2)), n - 1)
    n_train = n - n_val
    if r_test > 0:
        n_train = min(max(1, int(round(n * r_train))), n_train)
    ids = [f"{i:03d}" for i in range(n)]
    return ids[:n_train], ids[n_train:n_train + n_val], ids[n_train + n_val:]


def emit_dataset(cfg, scenes, ratios, out_dir, seed, frames_per_seq, motions,
                 clutter=True):
    """Render every scene to .rdt frames plus poses.csv and a manifest.

    Layout: manifest.txt (key=value), frames/SEQ_FRAME.rdt, poses.csv with
    header seq,frame,joint,x_mm,y_mm,z_mm. Byte-identical for a fixed seed.
    """
    train_ids, val_ids, test_ids = split_sequences(len(scenes), ratios)
    out = Path(out_dir)
    try:
        (out / "frames").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create dataset directory {out}: {exc}") from exc
    pose_rows = []
    for s_idx, scene in enumerate(scenes):
        seq_id = f"{s_idx:03d}"
        for f_idx in range(frames_per_seq):
            tensor = render_scene_frame(scene, f_idx, cfg,
                                        noise_seed=[seed, s_idx, f_idx])
            storage.write_rdt(out / "frames" / f"{seq_id}_{f_idx:04d}.rdt", tensor)
            pose = scene.pose_mm(f_idx / cfg.frame_rate_hz)
            for j in range(pose.shape[0]):
                pose_rows.append((seq_id, f_idx, j, pose[j, 0], pose[j, 1],
                                  pose[j, 2]))
    storage.write_csv(out / "poses.csv", storage.POSES_HEADER, pose_rows)
    manifest = {
        "seed": seed,
        "R": cfg.R,
        "A": cfg.A,
        "D": cfg.D,
        "J": len(JOINT_NAMES),
        "frame_rate": cfg.frame_rate_hz,
        "carrier_hz": cfg.carrier_hz,
        "bandwidth_hz": cfg.bandwidth_hz,
        "chirp_duration_s": cfg.chirp_duration_s,
        "chirps_per_frame": cfg.chirps_per_frame,
        "fast_samples_per_chirp": cfg.fast_samples_per_chirp,
        "virtual_elements": cfg.virtual_elements,
        "noise_std": cfg.noise_std,
        "frames_per_sequence": frames_per_seq,
        "sequences": len(scenes),
        "clutter": "true" if clutter else "false",
        "motions": ",".join(motions),
        "joint_names": ",".join(JOINT_NAMES),
        "split_train": ",".join(train_ids),
        "split_val": ",".join(val_ids),
        "split_test": ",".join(test_ids),
    }
    (out / "manifest.txt").write_text(storage.key_value_text(manifest) + "\n")
    return manifest

