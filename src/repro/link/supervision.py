"""Link supervision: retransmission backoff and a link-state machine.

The paper's prototype retries on a fixed 10 ms timeout and trusts the
control plane to stay up (Sections 5.1, 6.1).  Real deployments of the
OpenVLC-class platforms report link outages and noise bursts as the
dominant failure mode, so this module adds the two standard defences:

* :class:`BackoffPolicy` — exponential backoff with deterministic
  jitter on the ACK-timeout schedule.  The schedule is a pure function
  of ``(seed, attempt)``: same seed, same schedule, bit-for-bit, which
  keeps every supervised simulation replayable.
* :class:`LinkSupervisor` — a four-state link health machine
  (UP → DEGRADED → DOWN → PROBING) driven by ACK-loss streaks and
  CRC-failure streaks.  Transitions are recorded both on the
  supervisor (for metrics) and, when a journal is attached, as
  ``link-state`` events in the discrete-event journal, so resilience
  metrics (time-to-detect, time-to-recover) fall out of the trace.

The MAC (:class:`~repro.link.mac.StopAndWaitMac`) consumes the backoff
schedule; the chaos harness (:mod:`repro.resilience.chaos`) drives the
supervisor and reacts to its state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from ..core.params import require_finite

if TYPE_CHECKING:  # avoid a link <-> des import cycle at runtime
    from ..des.journal import EventJournal


class LinkState(Enum):
    """Health of a supervised VLC link."""

    UP = "up"                # nominal: full-rate design, full payloads
    DEGRADED = "degraded"    # lossy: conservative design, small payloads
    DOWN = "down"            # dead: illumination-only, data suspended
    PROBING = "probing"      # dead but sending probe frames to detect recovery


def _unit_draw(seed: int, attempt: int) -> float:
    """A deterministic, platform-stable uniform draw in [0, 1).

    Derived through :class:`numpy.random.SeedSequence`, not ``hash``,
    so the value does not depend on ``PYTHONHASHSEED`` or the host.
    """
    state = np.random.SeedSequence(entropy=(seed, attempt)).generate_state(1)
    return float(state[0]) / float(2 ** 32)


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``timeout_for(attempt)`` yields the ACK timeout to wait after the
    ``attempt``-th failed transmission (0-indexed).  The schedule is

    * monotone non-decreasing (a running maximum is enforced, so jitter
      can never shrink a later timeout below an earlier one),
    * capped at ``cap_s`` (jitter included), and
    * a pure function of ``(seed, attempt)`` — exact determinism.

    ``factor=1.0`` with ``jitter_frac=0.0`` degenerates to the paper's
    fixed-timeout behaviour and leaves
    :meth:`~repro.link.mac.StopAndWaitMac.expected_throughput` exactly
    unchanged.
    """

    base_timeout_s: float = 10.0e-3
    factor: float = 2.0
    cap_s: float = 0.16
    jitter_frac: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.base_timeout_s <= 0:
            raise ValueError("base_timeout_s must be positive")
        if self.factor < 1.0:
            raise ValueError("factor must be >= 1 (backoff cannot shrink)")
        if self.cap_s < self.base_timeout_s:
            raise ValueError("cap_s must be >= base_timeout_s")
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ValueError("jitter_frac must lie in [0, 1)")

    @classmethod
    def disabled(cls, base_timeout_s: float = 10.0e-3) -> "BackoffPolicy":
        """The fixed-timeout policy of the paper's prototype."""
        return cls(base_timeout_s=base_timeout_s, factor=1.0,
                   cap_s=base_timeout_s, jitter_frac=0.0)

    def _jittered(self, attempt: int) -> float:
        raw = self.base_timeout_s * self.factor ** attempt
        if self.jitter_frac:
            raw *= 1.0 + self.jitter_frac * _unit_draw(self.seed, attempt)
        return min(raw, self.cap_s)

    def timeout_for(self, attempt: int) -> float:
        """Timeout after the ``attempt``-th failure (0-indexed)."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        timeout = 0.0
        for a in range(attempt + 1):
            timeout = max(timeout, self._jittered(a))
        return timeout

    def schedule(self, n_attempts: int) -> tuple[float, ...]:
        """The first ``n_attempts`` timeouts of the schedule."""
        if n_attempts < 0:
            raise ValueError("n_attempts must be non-negative")
        out: list[float] = []
        timeout = 0.0
        for a in range(n_attempts):
            timeout = max(timeout, self._jittered(a))
            out.append(timeout)
        return tuple(out)

    @property
    def saturation_attempt(self) -> int:
        """First attempt index whose un-jittered timeout reaches the cap."""
        attempt = 0
        raw = self.base_timeout_s
        while raw < self.cap_s and attempt < 10_000:
            raw *= self.factor
            attempt += 1
            if self.factor == 1.0:
                break
        return attempt


@dataclass(frozen=True)
class LinkTransition:
    """One supervisor state change, stamped on the simulation clock."""

    time: float
    source: LinkState
    target: LinkState
    reason: str = ""


@dataclass
class LinkSupervisor:
    """The UP → DEGRADED → DOWN → PROBING link health machine.

    Failure evidence (a missing ACK or a CRC-failed probe echo) feeds
    :meth:`on_failure`; delivery evidence feeds :meth:`on_success`.
    Streaks drive the transitions, and the failure *kind* matters:
    stepping the design down cannot repair a lossy out-of-band ACK
    path, so only channel-quality evidence (any reason other than
    ``"ack-loss"``) counts toward degradation, while failures of any
    kind count toward declaring the link dead:

    * ``degraded_after`` consecutive CRC failures: UP → DEGRADED (the
      designer steps down to a conservative symbol, payloads shrink);
    * ``down_after`` consecutive failures of any kind: → DOWN (data is
      suspended; the lighting controller keeps illuminating);
    * from DOWN the caller starts PROBING; ``recover_after``
      consecutive probe successes re-enter DEGRADED, and
      ``recover_after`` consecutive data successes restore UP.

    Every transition is appended to :attr:`transitions` and, when a
    journal is attached, recorded as a ``link-state`` event.
    """

    degraded_after: int = 3
    down_after: int = 8
    recover_after: int = 2
    journal: "EventJournal | None" = None
    actor: str = "link"

    def __post_init__(self) -> None:
        if self.degraded_after < 1:
            raise ValueError("degraded_after must be positive")
        if self.down_after <= self.degraded_after:
            raise ValueError("down_after must exceed degraded_after")
        if self.recover_after < 1:
            raise ValueError("recover_after must be positive")
        self._state = LinkState.UP
        self._fail_streak = 0
        self._crc_streak = 0
        self._ok_streak = 0
        self._down_was_crc = False
        self.transitions: list[LinkTransition] = []

    @property
    def state(self) -> LinkState:
        """The current link state."""
        return self._state

    @property
    def fail_streak(self) -> int:
        """Consecutive failures (of any kind) since the last success."""
        return self._fail_streak

    @property
    def crc_streak(self) -> int:
        """Consecutive channel-quality failures since the last success."""
        return self._crc_streak

    def _transition(self, t: float, target: LinkState, reason: str) -> None:
        if target is self._state:
            return
        transition = LinkTransition(t, self._state, target, reason)
        self.transitions.append(transition)
        if self.journal is not None:
            self.journal.record(t, "link-state", self.actor,
                                source=self._state.value,
                                target=target.value, reason=reason)
        self._state = target

    def on_success(self, t: float) -> LinkState:
        """A data frame was delivered and acknowledged at ``t``."""
        self._fail_streak = 0
        self._crc_streak = 0
        self._ok_streak += 1
        if (self._state is LinkState.DEGRADED
                and self._ok_streak >= self.recover_after):
            self._transition(t, LinkState.UP, "recovered")
            self._ok_streak = 0
        return self._state

    def on_failure(self, t: float, reason: str = "ack-loss") -> LinkState:
        """A transmission failed at ``t``.

        ``reason`` distinguishes the evidence: ``"ack-loss"`` (the
        frame may have been decoded but the out-of-band ACK vanished)
        only counts toward DOWN, while any other reason (``"crc"``,
        a garbled frame) also counts toward DEGRADED.
        """
        self._ok_streak = 0
        self._fail_streak += 1
        if reason != "ack-loss":
            self._crc_streak += 1
        if self._state is LinkState.UP \
                and self._crc_streak >= self.degraded_after:
            self._transition(t, LinkState.DEGRADED, reason)
        if self._state in (LinkState.UP, LinkState.DEGRADED) \
                and self._fail_streak >= self.down_after:
            # Remember the dominant evidence: a channel-caused outage
            # recovers conservatively (probe -> DEGRADED), an
            # ACK-path-caused one re-enters UP directly.
            self._down_was_crc = self._crc_streak >= self.degraded_after
            self._transition(t, LinkState.DOWN, reason)
        return self._state

    def start_probing(self, t: float) -> LinkState:
        """Begin sending probe frames on a DOWN link."""
        if self._state is LinkState.DOWN:
            self._ok_streak = 0
            self._transition(t, LinkState.PROBING, "probe")
        return self._state

    def on_probe_success(self, t: float) -> LinkState:
        """A probe frame was acknowledged at ``t``.

        Recovery re-enters DEGRADED when the outage was channel-caused
        (data successes then finish the climb to UP) but returns to UP
        directly when it was ACK-path-caused — the probes just proved
        the ACK path works again, and there was never channel evidence
        against full-rate frames.
        """
        self._fail_streak = 0
        self._crc_streak = 0
        self._ok_streak += 1
        if (self._state is LinkState.PROBING
                and self._ok_streak >= self.recover_after):
            target = (LinkState.DEGRADED if self._down_was_crc
                      else LinkState.UP)
            self._transition(t, target, "probe-recovered")
            self._ok_streak = 0
        return self._state

    def on_probe_failure(self, t: float) -> LinkState:
        """A probe frame went unanswered at ``t``."""
        self._ok_streak = 0
        self._fail_streak += 1
        if self._state is LinkState.PROBING:
            self._transition(t, LinkState.DOWN, "probe-failed")
        return self._state

    @property
    def data_suspended(self) -> bool:
        """Whether data transmission is currently suspended."""
        return self._state in (LinkState.DOWN, LinkState.PROBING)

    def snapshot(self, backoff: BackoffPolicy | None = None) -> dict:
        """The supervisor's externally visible state as a plain dict.

        Everything a control-plane consumer needs without poking
        internals: the current state, the ``cause`` of the most recent
        transition (empty before the first one), the evidence streaks,
        whether data is suspended, and — when a :class:`BackoffPolicy`
        is supplied — ``backoff_remaining_s``, the ACK timeout the MAC
        is currently waiting out given the failure streak.  The dict is
        JSON-able, so the serve ``link`` endpoint returns it verbatim
        and ``repro stats`` renders it from exported telemetry.
        """
        remaining = 0.0
        if backoff is not None and self._fail_streak > 0:
            remaining = backoff.timeout_for(self._fail_streak - 1)
        return {
            "state": self._state.value,
            "cause": self.transitions[-1].reason if self.transitions else "",
            "fail_streak": self._fail_streak,
            "crc_streak": self._crc_streak,
            "ok_streak": self._ok_streak,
            "transitions": len(self.transitions),
            "data_suspended": self.data_suspended,
            "backoff_remaining_s": remaining,
        }

    def time_in_state(self, state: LinkState, until_s: float,
                      since_s: float = 0.0) -> float:
        """Total seconds spent in ``state`` over ``[since_s, until_s]``."""
        if until_s < since_s:
            raise ValueError("until_s must be >= since_s")
        total = 0.0
        current = LinkState.UP
        mark = since_s
        for tr in self.transitions:
            t = min(max(tr.time, since_s), until_s)
            if current is state:
                total += t - mark
            mark = t
            current = tr.target
        if current is state:
            total += until_s - mark
        return total
