"""The P² quantile and latency sketch as first written: a test oracle.

:mod:`repro.obs.live` replaced these with a faster ``add`` that must
produce bit-identical floats; ``test_p2_identity.py`` checks that on
random streams.  This module keeps the original code unchanged so the
check has a fixed reference.  Nothing outside the tests imports it.
"""

from __future__ import annotations


class P2Quantile:
    """One streaming quantile via the P² algorithm (Jain & Chlamtac 1985).

    Five markers track the running estimate; marker heights adjust with a
    piecewise-parabolic prediction as observations arrive.  Exact for the
    first five observations, an estimate afterwards.  Fully deterministic:
    same observation sequence, same estimate.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.q = q
        self.count = 0
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
        self._increments = [0.0, q / 2, q, (1 + q) / 2, 1.0]

    def add(self, value: float) -> None:
        self.count += 1
        if self.count <= 5:
            self._heights.append(float(value))
            self._heights.sort()
            return
        h = self._heights
        # Find the cell the new observation falls into; stretch extremes.
        if value < h[0]:
            h[0] = float(value)
            cell = 0
        elif value >= h[4]:
            h[4] = float(value)
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= h[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            self._positions[index] += 1
        for index in range(5):
            self._desired[index] += self._increments[index]
        # Adjust the three interior markers toward their desired positions.
        for index in range(1, 4):
            drift = self._desired[index] - self._positions[index]
            pos = self._positions
            if (drift >= 1 and pos[index + 1] - pos[index] > 1) or (
                drift <= -1 and pos[index - 1] - pos[index] < -1
            ):
                step = 1.0 if drift >= 1 else -1.0
                candidate = self._parabolic(index, step)
                if h[index - 1] < candidate < h[index + 1]:
                    h[index] = candidate
                else:
                    h[index] = self._linear(index, step)
                pos[index] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        return h[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step)
            * (h[i + 1] - h[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step)
            * (h[i] - h[i - 1])
            / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (pos[j] - pos[i])

    def value(self) -> float:
        """The current estimate (exact while ``count <= 5``)."""
        if not self._heights:
            return 0.0
        if self.count <= 5:
            # Exact quantile over the sorted sample, nearest-rank.
            rank = max(0, min(len(self._heights) - 1, round(self.q * (len(self._heights) - 1))))
            return self._heights[rank]
        return self._heights[2]


# --------------------------------------------------------------------- #
# Latency sketches


#: The SLO quantiles every sketch tracks, in reporting order.
SLO_QUANTILES = (("p50", 0.5), ("p99", 0.99), ("p999", 0.999))


class LatencySketch:
    """Streaming count/total/min/max plus p50/p99/p999 of a latency."""

    __slots__ = ("count", "total", "min", "max", "_sketches")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None
        self._sketches = tuple(P2Quantile(q) for _, q in SLO_QUANTILES)

    def add(self, value: int) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for sketch in self._sketches:
            sketch.add(value)

    def quantiles(self) -> dict[str, int]:
        out = {}
        for (name, _), sketch in zip(SLO_QUANTILES, self._sketches):
            estimate = int(round(sketch.value()))
            if self.max is not None:
                estimate = min(estimate, self.max)
            if self.min is not None:
                estimate = max(estimate, self.min)
            out[name] = estimate
        return out

    def as_dict(self) -> dict[str, object]:
        mean = round(self.total / self.count, 2) if self.count else 0.0
        out: dict[str, object] = {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": mean,
        }
        out.update(self.quantiles())
        return out
