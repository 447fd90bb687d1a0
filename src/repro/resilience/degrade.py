"""Graceful degradation: trade fidelity for availability under faults.

The paper's "low resolution instead of late" principle (Sec. IV-C/IV-I)
applied to failure handling: when the platform observes a degraded link or
a failing downstream, it serves *something* — a stale cached read, a
coarser LOD — rather than nothing.  :class:`DegradationController` is the
shared monitor: components report operation outcomes into a sliding
window, and when the observed failure rate trips the threshold, every
attached :class:`~repro.streamlod.adaptive.AdaptiveStreamer` has its frame
budget cut (halved per step by default), shrinking bandwidth demand until
the fault clears; sustained success restores the budget step by step.
"""

from __future__ import annotations

from collections import deque

from ..core.errors import ConfigurationError
from ..core.metrics import MetricsRegistry
from ..obs.tracing import NoopTracer, Tracer
from ..streamlod.adaptive import AdaptiveStreamer


class DegradationController:
    """Sliding-window failure monitor driving LOD downgrades.

    Parameters
    ----------
    window:
        Number of recent outcomes considered; decisions need a full window.
    trip_rate:
        Failure fraction at or above which one more downgrade step applies.
    recover_rate:
        Failure fraction at or below which one step is restored.
    downgrade_factor:
        Per-step multiplier on attached streamers' frame budgets.
    max_steps:
        Floor on degradation (budget never drops below
        ``downgrade_factor ** max_steps`` of baseline).
    """

    def __init__(
        self,
        window: int = 64,
        trip_rate: float = 0.2,
        recover_rate: float = 0.02,
        downgrade_factor: float = 0.5,
        max_steps: int = 3,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        if not 0.0 < trip_rate <= 1.0:
            raise ConfigurationError("trip_rate must be in (0, 1]")
        if not 0.0 <= recover_rate < trip_rate:
            raise ConfigurationError("recover_rate must be in [0, trip_rate)")
        if not 0.0 < downgrade_factor < 1.0:
            raise ConfigurationError("downgrade_factor must be in (0, 1)")
        if max_steps < 1:
            raise ConfigurationError("max_steps must be >= 1")
        self.window = window
        self.trip_rate = trip_rate
        self.recover_rate = recover_rate
        self.downgrade_factor = downgrade_factor
        self.max_steps = max_steps
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._streamers: list[tuple[AdaptiveStreamer, int]] = []
        self.level = 0

    # -- wiring ------------------------------------------------------------

    def attach(self, streamer: AdaptiveStreamer) -> None:
        """Manage ``streamer``'s frame budget (its current budget is baseline)."""
        self._streamers.append((streamer, streamer.frame_budget_bytes))
        self._apply()

    # -- observation -------------------------------------------------------

    def observe(self, ok: bool) -> None:
        """Report one operation outcome; may trigger a downgrade/restore."""
        self._outcomes.append(ok)
        if len(self._outcomes) < self.window:
            return
        rate = self.failure_rate()
        if rate >= self.trip_rate and self.level < self.max_steps:
            self._step(+1, rate)
        elif rate <= self.recover_rate and self.level > 0:
            self._step(-1, rate)

    def failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return 1.0 - sum(self._outcomes) / len(self._outcomes)

    @property
    def degraded(self) -> bool:
        return self.level > 0

    # -- internals ---------------------------------------------------------

    def _step(self, direction: int, rate: float) -> None:
        self.level += direction
        verb = "degraded" if direction > 0 else "restored"
        self.metrics.counter(f"resilience.degradation.{verb}").inc()
        self.metrics.gauge("resilience.degradation.level").set(float(self.level))
        self.tracer.log(
            "warning" if direction > 0 else "info",
            f"LOD budget {verb}", step=self.level, failure_rate=rate,
        )
        # A full fresh window must accumulate before the next step, so one
        # burst cannot cascade straight to the floor.
        self._outcomes.clear()
        self._apply()

    def _apply(self) -> None:
        factor = self.downgrade_factor**self.level
        for streamer, baseline in self._streamers:
            streamer.set_frame_budget(max(1, int(baseline * factor)))
