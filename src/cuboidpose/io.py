"""File formats: PGM/PPM images, key=value configs and the ground-truth
sidecar."""

from __future__ import annotations

import os
from functools import cached_property

import numpy as np

from .camera import CameraIntrinsics, DepthImage, MaskImage
from .correction import CuboidSpec
from .errors import ParseError
from .geometry import Pose


# ---------------------------------------------------------------- PNM images

def _read_pnm_header(data: bytes | bytearray, magic: bytes, path):
    if not data.startswith(magic):
        raise ParseError(f"{path}: expected {magic.decode()} magic", 1)
    fields = []
    pos = len(magic)
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError(f"{path}: truncated header")
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    if not all(v.isdigit() for v in fields):
        raise ParseError(f"{path}: non-numeric header field")
    width, height, maxval = (int(v) for v in fields)
    return width, height, maxval, pos


def _pixels(data, pos: int, dtype, count: int, path) -> np.ndarray:
    """The `count` pixels that follow the header, as a view of `data`;
    ParseError when the file holds fewer."""
    if len(data) - pos < count * np.dtype(dtype).itemsize:
        raise ParseError(f"{path}: truncated pixel data")
    return np.frombuffer(data, dtype=dtype, offset=pos, count=count)


def save_pgm16(path, depth: DepthImage) -> None:
    """Depth in whole millimeters as 16-bit big-endian PGM; 0 marks invalid."""
    mm = depth.data * 1000.0
    np.rint(mm, out=mm)
    if np.any(mm > 65535):
        raise ValueError("depth exceeds 16-bit millimeter range")
    with open(path, "wb") as f:
        f.write(f"P5\n{depth.width} {depth.height}\n65535\n".encode())
        f.write(mm.astype(">u2").tobytes())


class _MillimeterDepth(DepthImage):
    """A depth image that holds a file's big-endian uint16 millimeters and
    converts to float64 meters only what is read: `block` converts its box,
    and the first read of `data` converts the full frame and keeps it. Both
    divide the float64 millimeters by 1000, so every value is bit-identical
    to converting the whole frame at load. A uint16 divided by 1000 is always
    finite and non-negative, so the image cannot fail `DepthImage`'s check,
    and none is run. Width and height come from the millimeter array, so
    reading them converts nothing."""

    def __init__(self, mm: np.ndarray):
        self._mm = mm

    @cached_property
    def data(self) -> np.ndarray:
        meters = self._mm.astype(np.float64)
        meters /= 1000.0
        return meters

    @property
    def width(self) -> int:
        return self._mm.shape[1]

    @property
    def height(self) -> int:
        return self._mm.shape[0]

    def block(self, box: tuple[slice, slice]) -> np.ndarray:
        if "data" in self.__dict__:  # converted already, and perhaps written to
            return self.data[box]
        return self._mm[box].astype(np.float64) / 1000.0


def _read_writable(path) -> bytearray:
    """The file's bytes in a mutable buffer, so arrays over it are writable."""
    with open(path, "rb") as f:
        buf = bytearray(os.fstat(f.fileno()).st_size)
        n = f.readinto(buf)
    del buf[n:]
    return buf


def load_pgm16(path) -> DepthImage:
    """Depth from a 16-bit big-endian PGM of whole millimeters.

    The image holds the file's millimeters; it converts to meters the box
    `deproject_mask` reads, and the full frame only when `data` is first
    read (`_MillimeterDepth`). A bad magic, a maxval other than 65535 or
    truncated pixel data raises ParseError here, at load.
    """
    with open(path, "rb") as f:
        data = f.read()
    w, h, maxval, pos = _read_pnm_header(data, b"P5", path)
    if maxval != 65535:
        raise ParseError(f"{path}: expected 16-bit depth, maxval {maxval}")
    raw = _pixels(data, pos, ">u2", w * h, path)
    return _MillimeterDepth(raw.reshape(h, w))


def save_pgm8(path, mask: MaskImage) -> None:
    with open(path, "wb") as f:
        f.write(f"P5\n{mask.width} {mask.height}\n255\n".encode())
        f.write(mask.data.astype(np.uint8).tobytes())


def load_pgm8(path) -> MaskImage:
    data = _read_writable(path)
    w, h, maxval, pos = _read_pnm_header(data, b"P5", path)
    if maxval != 255:
        raise ParseError(f"{path}: expected 8-bit mask, maxval {maxval}")
    raw = _pixels(data, pos, np.uint8, w * h, path)
    return MaskImage(raw.reshape(h, w))


def save_ppm(path, rgb: np.ndarray) -> None:
    rgb = np.asarray(rgb, dtype=np.uint8)
    h, w, _ = rgb.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(rgb.tobytes())


def load_ppm(path) -> np.ndarray:
    """(h, w, 3) uint8 RGB from an 8-bit binary PPM: a writable array over
    the buffer the file was read into, with no copy. A bad magic, a maxval
    other than 255 or truncated pixel data raises ParseError."""
    data = _read_writable(path)
    w, h, maxval, pos = _read_pnm_header(data, b"P6", path)
    if maxval != 255:
        raise ParseError(f"{path}: expected 8-bit color, maxval {maxval}")
    raw = _pixels(data, pos, np.uint8, w * h * 3, path)
    return raw.reshape(h, w, 3)


# ---------------------------------------------------------------- key=value

def write_kv(path, pairs: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for key, value in pairs.items():
            f.write(f"{key}={value}\n")


def read_kv(path) -> dict[str, str]:
    """Line-oriented key=value file; blank lines and '#' comments ignored."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for ln, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"expected key=value, got {line!r}", ln)
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def save_intrinsics(path, intr: CameraIntrinsics) -> None:
    write_kv(
        path,
        {
            "fx": f"{intr.fx:.17g}",
            "fy": f"{intr.fy:.17g}",
            "cx": f"{intr.cx:.17g}",
            "cy": f"{intr.cy:.17g}",
            "width": intr.width,
            "height": intr.height,
        },
    )


def load_intrinsics(path) -> CameraIntrinsics:
    kv = read_kv(path)
    try:
        return CameraIntrinsics(
            fx=float(kv["fx"]),
            fy=float(kv["fy"]),
            cx=float(kv["cx"]),
            cy=float(kv["cy"]),
            width=int(kv["width"]),
            height=int(kv["height"]),
        )
    except KeyError as exc:
        raise ParseError(f"{path}: missing intrinsics key {exc}") from None


def save_ground_truth(path, pose: Pose, cuboid: CuboidSpec, extra: dict | None = None):
    """Sidecar with the row-major 4x4 pose and the face dimensions."""
    flat = " ".join(f"{v:.17g}" for v in pose.matrix.ravel())
    pairs = {
        "pose": flat,
        "width": f"{cuboid.width:.17g}",
        "height": f"{cuboid.height:.17g}",
        "depth": f"{cuboid.depth:.17g}",
    }
    if extra:
        pairs.update(extra)
    write_kv(path, pairs)


def load_ground_truth(path) -> tuple[Pose, CuboidSpec, dict[str, str]]:
    kv = read_kv(path)
    try:
        vals = [float(v) for v in kv.pop("pose").split()]
    except KeyError:
        raise ParseError(f"{path}: missing pose") from None
    if len(vals) != 16:
        raise ParseError(f"{path}: pose needs 16 values, found {len(vals)}")
    pose = Pose.from_matrix(np.array(vals).reshape(4, 4))
    try:
        cuboid = CuboidSpec(
            float(kv.pop("width")), float(kv.pop("height")), float(kv.pop("depth"))
        )
    except KeyError as exc:
        raise ParseError(f"{path}: missing dimension {exc}") from None
    return pose, cuboid, kv


def save_scene(out_dir, rgb, depth, mask, intr, pose, cuboid, extra=None) -> None:
    """Write the full scene file set into a directory."""
    os.makedirs(out_dir, exist_ok=True)
    save_ppm(os.path.join(out_dir, "rgb.ppm"), rgb)
    save_pgm16(os.path.join(out_dir, "depth.pgm"), depth)
    save_pgm8(os.path.join(out_dir, "mask.pgm"), mask)
    save_intrinsics(os.path.join(out_dir, "intrinsics.txt"), intr)
    save_ground_truth(os.path.join(out_dir, "ground_truth.txt"), pose, cuboid, extra)


def load_scene(scene_dir):
    """Read back the file set written by `save_scene`."""
    rgb = load_ppm(os.path.join(scene_dir, "rgb.ppm"))
    depth = load_pgm16(os.path.join(scene_dir, "depth.pgm"))
    mask = load_pgm8(os.path.join(scene_dir, "mask.pgm"))
    intr = load_intrinsics(os.path.join(scene_dir, "intrinsics.txt"))
    pose, cuboid, extra = load_ground_truth(os.path.join(scene_dir, "ground_truth.txt"))
    return rgb, depth, mask, intr, pose, cuboid, extra
