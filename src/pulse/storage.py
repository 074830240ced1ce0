"""File formats: .rdt frame tensors, key=value text, CSV tables and
PULSECKP checkpoints.

.rdt        magic RDT1, u32 R, A, D (little-endian), then R*A*D float32
            little-endian values in (range, angle, doppler) row-major order.
PULSECKP    magic, u32 version, length-prefixed UTF-8 model-config text,
            u64 seed, u32 parameter count, then per parameter a
            length-prefixed name, u32 rank, u32 dims, and float64
            little-endian values. Loading then saving is byte-identical.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

RDT_MAGIC = b"RDT1"
CKP_MAGIC = b"PULSECKP"
CKP_VERSION = 1


def write_rdt(path, values):
    values = np.asarray(values)
    if values.ndim != 3:
        raise DataError(f"rdt expects an (R, A, D) tensor, got shape {values.shape}")
    r, a, d = values.shape
    payload = values.astype("<f4").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(RDT_MAGIC)
        fh.write(struct.pack("<III", r, a, d))
        fh.write(payload)


def read_rdt(path):
    """The (R, A, D) float32 values of .rdt file `path`, as stored: a
    read-only view of the file's bytes, checked finite and nonnegative."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if blob[:4] != RDT_MAGIC:
        raise DataError(f"{path}: bad magic {blob[:4]!r}, expected {RDT_MAGIC!r}")
    if len(blob) < 16:
        raise DataError(f"{path}: truncated header, {len(blob)} of 16 bytes")
    r, a, d = struct.unpack_from("<III", blob, 4)
    expected = 16 + 4 * r * a * d
    if len(blob) != expected:
        raise DataError(f"{path}: size {len(blob)} != expected {expected}")
    flat = np.frombuffer(blob, dtype="<f4", offset=16)
    # NaN fails both comparisons, +inf the second, negatives the first.
    if not ((flat >= 0) & (flat < np.inf)).all():
        raise DataError(f"{path}: values must be finite and nonnegative")
    return flat.reshape(r, a, d)


# ---------------------------------------------------------------------------
# Text formats: key=value lines (manifest.txt, --config files, resolved.cfg,
# the checkpoint's model config) and CSV tables (poses.csv and the reports)

def read_text(path, error=DataError):
    """The UTF-8 text of file `path`. An unreadable file raises DataError; a
    byte that is not UTF-8 raises `error`, naming the file and the byte's
    offset."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.start} is not UTF-8") from None


def parse_key_values(text, source, error):
    """{key: value} of `key=value` lines. Lines are stripped; blank lines and
    lines starting with # are skipped. Keys and values are stripped, a value
    may hold further `=`, and a later key wins. A line without `=` raises
    `error`, naming `source` and the line number."""
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise error(f"{source}: line {lineno}: expected key=value, got {line!r}")
        entries[key.strip()] = value.strip()
    return entries


def key_value_text(entries):
    """`key=value` lines of a mapping, in its order, without a trailing
    newline (a file adds its own)."""
    return "\n".join(f"{key}={value}" for key, value in entries.items())


def write_csv(path, header, rows):
    """A CSV file of the `header` line and `rows`. Strings and ints are
    written as given, every other value as repr(float(v)), which reads back
    exactly."""
    def text(v):
        return str(v) if isinstance(v, (str, int)) else repr(float(v))
    lines = [header] + [",".join(map(text, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


POSES_HEADER = "seq,frame,joint,x_mm,y_mm,z_mm"


def read_poses_csv(path, joints):
    """-> {seq_id: (T, J, 3) mm array} with frames in index order."""
    lines = read_text(path).splitlines()
    if not lines or lines[0] != POSES_HEADER:
        raise DataError(f"{path}: expected header {POSES_HEADER!r}")
    by_seq: dict[str, dict[int, dict[int, tuple]]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            seq, frame, joint, x, y, z = line.split(",")
            frame, joint, xyz = int(frame), int(joint), (float(x), float(y), float(z))
        except ValueError:
            raise DataError(f"{path}: line {lineno}: malformed row {line!r}") from None
        if not all(map(math.isfinite, xyz)):
            raise DataError(f"{path}: line {lineno}: non-finite coordinate in {line!r}")
        if not 0 <= joint < joints:
            raise DataError(f"{path}: line {lineno}: joint {joint} outside 0..{joints - 1}")
        rows = by_seq.setdefault(seq, {}).setdefault(frame, {})
        if joint in rows:
            raise DataError(f"{path}: line {lineno}: sequence {seq} frame {frame} "
                            f"repeats joint {joint}")
        rows[joint] = xyz
    out = {}
    for seq, frame_map in by_seq.items():
        frames = sorted(frame_map)
        if frames != list(range(len(frames))):
            raise DataError(f"{path}: sequence {seq} has non-contiguous frames")
        for f in frames:
            missing = [j for j in range(joints) if j not in frame_map[f]]
            if missing:
                raise DataError(f"{path}: sequence {seq} frame {f} lacks joints {missing}")
        out[seq] = np.array([[frame_map[f][j] for j in range(joints)]
                             for f in frames]).reshape(len(frames), joints, 3)
    return out


# ---------------------------------------------------------------------------
# Checkpoints

def _pack_str(text):
    blob = text.encode("utf-8")
    return struct.pack("<I", len(blob)) + blob


class _Reader:
    """Reads an open checkpoint file of `size` bytes, checking each read
    against the bytes left before it reads or allocates anything."""

    def __init__(self, fh, size, path):
        self.fh = fh
        self.size = size
        self.off = 0
        self.path = path

    def _advance(self, n):
        if self.off + n > self.size:
            raise DataError(f"{self.path}: truncated checkpoint")
        self.off += n

    def take(self, n):
        self._advance(n)
        out = self.fh.read(n)
        if len(out) != n:
            raise DataError(f"{self.path}: truncated checkpoint")
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def string(self):
        blob = self.take(self.u32())
        try:
            return blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: string at offset "
                            f"{self.off - len(blob) + exc.start} is not UTF-8") from None

    def floats(self, name, shape):
        """The float64 values of parameter `name`, read straight into a
        fresh array. No whole-file buffer is held next to the parameters,
        so a reload can reuse the heap pages the last load freed."""
        self._advance(8 * math.prod(shape))
        try:
            values = np.empty(shape, dtype="<f8")
        except ValueError:
            # numpy refuses a rank above its limit and a shape whose extents
            # overflow its index type, even when one extent is 0
            raise DataError(f"{self.path}: parameter {name!r} has an invalid "
                            f"rank-{len(shape)} shape") from None
        if self.fh.readinto(values) != values.nbytes:
            raise DataError(f"{self.path}: truncated checkpoint")
        return values


def save_checkpoint(path, config_text, seed, named_params):
    """named_params: ordered iterable of (name, float64 array). The header
    and then each parameter's buffer are written straight to the file; no
    copy of the checkpoint is held in memory, and a C-order float64 array
    is written without a copy of its own."""
    named_params = [(name, np.asarray(values, dtype="<f8", order="C"))
                    for name, values in named_params]
    with open(path, "wb") as fh:
        fh.write(CKP_MAGIC + struct.pack("<I", CKP_VERSION) + _pack_str(config_text)
                 + struct.pack("<QI", int(seed) & (2**64 - 1), len(named_params)))
        for name, values in named_params:
            fh.write(_pack_str(name)
                     + struct.pack(f"<I{values.ndim}I", values.ndim, *values.shape))
            fh.write(values)


def load_checkpoint(path):
    """-> (config_text, seed, ordered list of (name, array))."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        rd = _Reader(fh, os.fstat(fh.fileno()).st_size, path)
        if rd.take(8) != CKP_MAGIC:
            raise DataError(f"{path}: bad checkpoint magic")
        version = rd.u32()
        if version != CKP_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        config_text = rd.string()
        seed = rd.u64()
        count = rd.u32()
        params = []
        for _ in range(count):
            name = rd.string()
            ndim = rd.u32()
            data = rd.floats(name, struct.unpack(f"<{ndim}I", rd.take(4 * ndim)))
            if not np.isfinite(data).all():
                raise DataError(f"{path}: parameter {name!r} holds a non-finite value")
            params.append((name, data))
        if rd.off != rd.size:
            raise DataError(f"{path}: trailing bytes in checkpoint")
    return config_text, seed, params


# ---------------------------------------------------------------------------
# Dataset directory access

SPLITS = ("train", "val", "test")


class Dataset:
    """In-memory view of an emitted dataset directory. Frames are held as
    the .rdt files store them, in float32; features.normalize_frame turns
    each into float64 when the model reads it, and the forward casts that
    to its parameters' dtype."""

    def __init__(self, root, manifest, splits, frames, poses, joint_names):
        self.root = Path(root)
        self.manifest = manifest
        self.splits = splits          # {"train": [seq ids], ...}
        self.joint_names = joint_names  # one name per joint, J in all
        self.frames = frames          # {seq: (T, R, A, D) float32, as stored}
        self.poses = poses            # {seq: (T, J, 3) mm}

    def split_sequences(self, split):
        if split == "all":
            ids = [sid for name in SPLITS for sid in self.splits.get(name, [])]
        else:
            ids = self.splits.get(split, [])
        if not ids:
            raise DataError(f"{self.root / 'manifest.txt'}: split {split!r} is empty")
        return [(sid, self.frames[sid], self.poses[sid]) for sid in ids]


def load_dataset(root):
    """The Dataset of directory `root`: its manifest checked, poses.csv and
    every frame read, each sequence's frames stacked into one float32 array.
    A manifest without joint_names gets radar.JOINT_NAMES when J is their
    count and joint_0 .. joint_{J-1} otherwise."""
    from .radar import JOINT_NAMES  # radar imports storage
    root = Path(root)
    manifest_path = root / "manifest.txt"
    manifest = parse_key_values(read_text(manifest_path), manifest_path, DataError)
    for key in ("seed", "R", "A", "D", "J", "frame_rate"):
        if key not in manifest:
            raise DataError(f"{manifest_path}: missing key {key!r}")
    for key in ("R", "A", "D", "J"):
        if not manifest[key].isdecimal():
            raise DataError(f"{manifest_path}: {key}={manifest[key]!r} is not an integer")
    grid = tuple(int(manifest[key]) for key in ("R", "A", "D"))
    joints = int(manifest["J"])
    if "joint_names" in manifest:
        joint_names = manifest["joint_names"].split(",")
        if len(joint_names) != joints:
            raise DataError(f"{manifest_path}: joint_names lists {len(joint_names)} "
                            f"names for J={joints}")
    elif joints == len(JOINT_NAMES):
        joint_names = list(JOINT_NAMES)
    else:
        joint_names = [f"joint_{j}" for j in range(joints)]
    poses = read_poses_csv(root / "poses.csv", joints)
    splits = {}
    listed = {}                     # sequence -> the split that lists it
    for name in SPLITS:
        raw = manifest.get(f"split_{name}", "")
        splits[name] = [s for s in raw.split(",") if s]
        for seq in splits[name]:
            if seq not in poses:
                raise DataError(f"{manifest_path}: split_{name} lists sequence {seq!r}, "
                                f"which has no rows in poses.csv")
            if seq in listed:
                raise DataError(f"{manifest_path}: split_{name} lists sequence {seq!r}, "
                                f"which split_{listed[seq]} already lists")
            listed[seq] = name
    frames = {}
    for seq in poses:
        stack = np.empty((len(poses[seq]),) + grid, dtype=np.float32)
        for f in range(len(stack)):
            path = root / "frames" / f"{seq}_{f:04d}.rdt"
            values = read_rdt(path)
            if values.shape != grid:
                raise DataError(f"{path}: grid {values.shape} != manifest "
                                f"(R, A, D) {grid}")
            stack[f] = values
        frames[seq] = stack
    return Dataset(root, manifest, splits, frames, poses, joint_names)
