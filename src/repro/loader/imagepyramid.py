"""Image pyramid construction.

"The sky color images were built specially for the website.  The
original 5-color 80-bit deep images were converted using a nonlinear
intensity mapping to reduce the brightness dynamic range to screen
quality.  The augmented-color images are 24bit RGB, stored as JPEGs.
An image pyramid was built at 4 zoom levels." (paper §2)

The reproduction renders synthetic 5-band pixel frames for a field from
the objects it contains, applies an asinh-style nonlinear stretch to
map the g/r/i bands onto 8-bit RGB, and builds the 4-level pyramid by
2x2 block averaging.  Tiles are stored as zlib-compressed raw RGB
(a stand-in for JPEG encoding, which needs no external library).

Everything is standard library: an image is a list of five bands, each
a list of rows (``array('d')``), and an RGB image is a list of rows of
interleaved 8-bit ``R, G, B`` bytes.
"""

from __future__ import annotations

import math
import random
import zlib
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

#: Number of zoom levels below the full-resolution image (paper: 4 levels).
PYRAMID_LEVELS = 4

#: Softening parameter of the asinh stretch (controls where the nonlinear
#: compression of bright pixels kicks in).
ASINH_SOFTENING = 0.02

#: A 5-band linear image: ``image[band][y][x]``.
Image = list[list[array]]
#: An 8-bit RGB image: one ``bytes`` per row, ``3 * width`` long.
RgbImage = list[bytes]


@dataclass
class Tile:
    """One encoded tile of the pyramid."""

    zoom: int
    width: int
    height: int
    data: bytes

    @property
    def encoded_bytes(self) -> int:
        return len(self.data)


def render_field_image(objects: Sequence[dict], *, ra_min: float, ra_max: float,
                       dec_min: float, dec_max: float, width: int = 128,
                       height: int = 96, seeing_pixels: float = 1.5,
                       rng: Optional[random.Random] = None) -> Image:
    """Render a synthetic 5-band image of a field from its PhotoObj rows.

    Returns five bands of ``height`` rows of ``width`` linear fluxes
    over Gaussian sky noise.  Each object contributes a circular
    Gaussian of total flux 10**(-0.4 (m - 22.5)) in each band.
    """
    rng = rng or random.Random(0)
    image = [[array("d", [rng.gauss(0.5, 0.05) for _x in range(width)])
              for _y in range(height)] for _band in range(5)]
    bands = ("u", "g", "r", "i", "z")
    for row in objects:
        x = (row["ra"] - ra_min) / max(1e-9, (ra_max - ra_min)) * (width - 1)
        y = (row["dec"] - dec_min) / max(1e-9, (dec_max - dec_min)) * (height - 1)
        if not (0 <= x < width and 0 <= y < height):
            continue
        radius = max(seeing_pixels, row.get("petrorad_r", row.get("petroRad_r", 1.5)))
        spread = 2.0 * radius ** 2
        footprint = [[math.exp(-((column - x) ** 2 + (line - y) ** 2) / spread)
                      for column in range(width)] for line in range(height)]
        total = math.fsum(math.fsum(line) for line in footprint) or 1.0
        for band_index, band in enumerate(bands):
            magnitude = row.get(f"modelmag_{band}", row.get(f"modelMag_{band}", 22.5))
            flux = 10.0 ** (-0.4 * (magnitude - 22.5)) * 100.0 / total
            for pixels, weights in zip(image[band_index], footprint):
                for column, weight in enumerate(weights):
                    pixels[column] += flux * weight
    return image


def _to_byte(value: float) -> int:
    """Clip to [0, 1] and scale to 0..255, truncating (NaN is 0)."""
    if not value > 0.0:
        return 0
    return int(min(value, 1.0) * 255.0)


def nonlinear_rgb(image: Image, *, softening: float = ASINH_SOFTENING,
                  scale: float = 0.8) -> RgbImage:
    """Map a 5-band linear image onto 8-bit RGB with an asinh stretch.

    The g, r and i bands drive blue, green and red respectively (the
    SkyServer's augmented-colour convention); the asinh compression
    keeps faint structure visible while bright stars stop saturating the
    display range.  Each pixel's arithmetic is done in the order of the
    float64 array expression it replaces, so tiles are byte-identical.
    """
    full_scale = math.asinh(scale / softening)
    rows = []
    for blue, green, red in zip(image[1], image[2], image[3]):
        pixels = bytearray()
        for b, g, r in zip(blue, green, red):
            total = (r + g + b) / 3.0
            ratio = (math.asinh(total / softening) / full_scale / total
                     if total > 0 else 0.0)
            pixels += bytes((_to_byte(r * ratio), _to_byte(g * ratio),
                             _to_byte(b * ratio)))
        rows.append(bytes(pixels))
    return rows


def downsample(rgb: RgbImage) -> RgbImage:
    """Halve an RGB image by 2x2 block averaging (one pyramid level)."""
    height = len(rgb) & ~1
    span = (len(rgb[0]) // 3 & ~1) * 3 if rgb else 0
    rows = []
    for top, bottom in zip(rgb[0:height:2], rgb[1:height:2]):
        rows.append(bytes(
            (top[i] + bottom[i] + top[i + 3] + bottom[i + 3]) >> 2
            for pixel in range(0, span, 6) for i in range(pixel, pixel + 3)))
    return rows


def encode_tile(rgb: RgbImage, zoom: int) -> Tile:
    """Encode an RGB image as a compressed tile (the JPEG stand-in)."""
    height = len(rgb)
    width = len(rgb[0]) // 3 if rgb else 0
    payload = zlib.compress(b"".join(rgb), 6)
    header = b"TILE" + bytes([zoom]) + width.to_bytes(2, "big") + \
        height.to_bytes(2, "big")
    return Tile(zoom=zoom, width=width, height=height, data=header + payload)


def decode_tile(tile: Tile) -> RgbImage:
    """Decode a tile back to its RGB rows (round-trip used by tests)."""
    header, payload = tile.data[:9], tile.data[9:]
    width = int.from_bytes(header[5:7], "big")
    height = int.from_bytes(header[7:9], "big")
    raw = zlib.decompress(payload)
    span = 3 * width
    return [raw[line * span:(line + 1) * span] for line in range(height)]


def build_pyramid(image: Image, *, levels: int = PYRAMID_LEVELS) -> list[Tile]:
    """Build the full pyramid: zoom 0 (full resolution) through ``levels``."""
    rgb = nonlinear_rgb(image)
    tiles = [encode_tile(rgb, 0)]
    current = rgb
    for zoom in range(1, levels + 1):
        if min(len(current), len(current[0]) // 3 if current else 0) < 2:
            break
        current = downsample(current)
        tiles.append(encode_tile(current, zoom))
    return tiles
