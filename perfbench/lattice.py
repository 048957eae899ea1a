"""The lattice 12-gon of the orbit workload and its exact outer-billiard orbits.

The polygon is the convex hull of the integer points in the disk of radius 5.
Its outer-billiard orbits are periodic (Vivaldi & Shaidenko, Comm. Math. Phys.
110, 1987): two steps translate a point by an even lattice vector and the
orbit is bounded.  Starts are dyadic (coordinates in Z / SCALE), so the float
iteration of the program is exact and the reference periods and windings
below are computed with integers alone, independently of the program.

Run this file to rebuild ``reference.json`` beside it:

    python3 perfbench/lattice.py
"""

from __future__ import annotations

import json
import math
import os
import random

VERTICES = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3),
            (-5, 0), (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3)]

# Starts live on the grid (Z / SCALE)^2.  Every singular line of the map is
# a x + b y = integer with (a, b) an edge normal of the polygon; keeping those
# combinations fractional keeps every orbit off the singular set.
SCALE = 64
EDGE_NORMALS = [(3, 1), (1, 1), (1, 3), (3, -1), (1, -1), (1, -3)]
MAX_PERIOD = 20_000
POOL_SIZE = 96
POOL_SEED = 20170613
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


def exact_orbit(x: int, y: int) -> list[tuple[int, int]]:
    """The periodic orbit of (x, y) / SCALE as scaled integer points.

    The support vertex v is the one with every other vertex strictly on the
    left of the ray from z through v; the map sends z to 2 v - z.
    """
    verts = [(SCALE * a, SCALE * b) for a, b in VERTICES]
    start = (x, y)
    pts = [start]
    z = start
    for _ in range(MAX_PERIOD):
        best = None
        for vx, vy in verts:
            ux, uy = vx - z[0], vy - z[1]
            if all(_cross(ux, uy, wx - z[0], wy - z[1]) > 0
                   for wx, wy in verts if (wx, wy) != (vx, vy)):
                best = (vx, vy)
                break
        if best is None:
            raise ValueError(f"start {start} meets a singular line or the polygon")
        z = (2 * best[0] - z[0], 2 * best[1] - z[1])
        if z == start:
            return pts
        pts.append(z)
    raise ValueError(f"start {start}: no period within {MAX_PERIOD} steps")


def winding(pts: list[tuple[int, int]]) -> int:
    """Turning number of the closed orbit polygon, from its half-edges."""
    n = len(pts)
    r = [(pts[i][0] - pts[(i + 1) % n][0], pts[i][1] - pts[(i + 1) % n][1])
         for i in range(n)]
    total = 0.0
    for i in range(n):
        ax, ay = r[i - 1]
        bx, by = r[i]
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return round(total / (2.0 * math.pi))


def _regular_offset(rng: random.Random) -> tuple[int, int]:
    while True:
        fx, fy = rng.randrange(1, SCALE), rng.randrange(1, SCALE)
        if all((a * fx + b * fy) % SCALE not in (0, 1, SCALE - 1)
               for a, b in EDGE_NORMALS):
            return fx, fy


def build_pool() -> list[dict]:
    """POOL_SIZE starts at distances 5.5 to 40 from the centre, with the
    period and winding of each orbit."""
    rng = random.Random(POOL_SEED)
    pool = []
    while len(pool) < POOL_SIZE:
        radius = 5.5 + 34.5 * (len(pool) / (POOL_SIZE - 1)) ** 1.5
        theta = rng.uniform(0.0, 2.0 * math.pi)
        fx, fy = _regular_offset(rng)
        x = SCALE * math.floor(radius * math.cos(theta)) + fx
        y = SCALE * math.floor(radius * math.sin(theta)) + fy
        ax, ay = abs(x), abs(y)
        if max(3 * ax + ay - 15 * SCALE, ax + ay - 7 * SCALE,
               ax + 3 * ay - 15 * SCALE) <= 0:
            continue  # inside the polygon
        pts = exact_orbit(x, y)
        pool.append({"start": [x / SCALE, y / SCALE], "period": len(pts),
                     "winding": winding(pts)})
    return pool


if __name__ == "__main__":
    pool = build_pool()
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write('{"polygon": %s,\n "scale": %d,\n "starts": [\n'
                 % (json.dumps(VERTICES), SCALE))
        fh.write(",\n".join("  " + json.dumps(p) for p in pool))
        fh.write("\n ]}\n")
    periods = sorted(p["period"] for p in pool)
    print(f"{len(pool)} starts, periods {periods[0]}..{periods[-1]}, "
          f"median {periods[len(periods) // 2]}, total {sum(periods)}")
