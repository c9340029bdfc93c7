"""The control-plane wire protocol: versioned JSON requests/responses.

Every message is one JSON object.  Requests carry a protocol version
``v``, an operation ``op`` and an optional client correlation ``id``
that is echoed back verbatim; responses carry ``ok`` plus either a
``result`` payload or a structured ``error`` (stable machine-readable
``code``, human-readable ``message``).  The same objects travel over
both transports: as an HTTP body on ``POST /v1/adapt`` and friends, or
as one line each on the persistent NDJSON socket protocol.

Operations:

* ``adapt`` — dimming level + ambient + geometry → the AMPPM
  super-symbol design and its expected performance at that placement;
* ``link`` — the :class:`~repro.link.LinkSupervisor` snapshot, with an
  optional evidence ``report`` to drive the state machine;
* ``health`` — liveness and load;
* ``metrics`` — the Prometheus exposition payload.

:func:`encode` is canonical (sorted keys, minimal separators), so two
identical responses are byte-identical — the parity contract the serve
tests pin against the direct :class:`~repro.core.AmppmDesigner` path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping

from ..core.ampdesign import AmppmDesign
from ..core.errormodel import SlotErrorModel
from ..core.params import SystemConfig

PROTOCOL_VERSION = 1

#: The four operations the control plane serves.
OPS = ("adapt", "link", "health", "metrics")

# Stable error codes (the machine-readable half of every error reply).
E_BAD_REQUEST = "bad-request"
E_UNKNOWN_OP = "unknown-op"
E_BAD_VERSION = "bad-version"
E_OVERLOADED = "overloaded"
E_DRAINING = "draining"
E_INTERNAL = "internal"

#: Error code → HTTP status the HTTP transport maps it to.
HTTP_STATUS = {
    E_BAD_REQUEST: 400,
    E_UNKNOWN_OP: 400,
    E_BAD_VERSION: 400,
    E_OVERLOADED: 503,
    E_DRAINING: 503,
    E_INTERNAL: 500,
}

#: Evidence kinds a ``link`` report may carry.
LINK_OUTCOMES = ("success", "failure", "probe", "probe-success",
                 "probe-failure")


class ProtocolError(ValueError):
    """A request that fails validation; carries a stable error code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class AdaptRequest:
    """One validated ``adapt`` request.

    ``dimming`` is the required dimming level; ``ambient`` the ambient
    light level relative to the paper's reference, in [0, 1] (1.0 = the
    measured worst case, the most the photodiode model represents);
    ``distance_m``/``angle_deg`` place the receiver on a
    constant-distance arc, as in Figs. 16-17.  Every field is a finite
    number.
    """

    dimming: float
    ambient: float = 1.0
    distance_m: float = 3.0
    angle_deg: float = 0.0
    id: str | None = None

    op = "adapt"


@dataclass(frozen=True)
class LinkRequest:
    """One validated ``link`` request.

    ``outcome``/``reason`` optionally feed delivery evidence into the
    supervisor before the snapshot is taken (the Wi-Fi feedback plane
    reporting in); both empty means "just read the state".
    """

    outcome: str = ""
    reason: str = "ack-loss"
    id: str | None = None

    op = "link"


@dataclass(frozen=True)
class SimpleRequest:
    """A validated ``health`` or ``metrics`` request (no parameters)."""

    op: str
    id: str | None = None


_ADAPT_FIELDS = {"v", "op", "id", "dimming", "ambient", "distance_m",
                 "angle_deg"}
_LINK_FIELDS = {"v", "op", "id", "report"}
_SIMPLE_FIELDS = {"v", "op", "id"}


def _require_number(obj: Mapping[str, Any], field: str, default: float,
                    *, lo: float, hi: float,
                    lo_open: bool = False, hi_open: bool = False) -> float:
    value = obj.get(field, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(E_BAD_REQUEST, f"{field} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer literal too large for a float
        value = math.inf
    if not math.isfinite(value):
        # Every comparison with NaN is false, so the range check below
        # would let it through to the model.
        raise ProtocolError(E_BAD_REQUEST,
                            f"{field} must be a finite number, got {value}")
    below = value <= lo if lo_open else value < lo
    above = value >= hi if hi_open else value > hi
    if below or above:
        span = f"{'(' if lo_open else '['}{lo:g}, {hi:g}{')' if hi_open else ']'}"
        raise ProtocolError(E_BAD_REQUEST,
                            f"{field} must lie in {span}, got {value:g}")
    return value


def _request_id(obj: Mapping[str, Any]) -> str | None:
    raw = obj.get("id")
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        raise ProtocolError(E_BAD_REQUEST, "id must be a string or integer")
    return str(raw)


def parse_request(obj: Any) -> "AdaptRequest | LinkRequest | SimpleRequest":
    """Validate a decoded JSON object into a typed request.

    Strict: the version must match, the operation must be known, every
    field must be of the declared type and range, and unknown fields
    are rejected (a typoed knob must not silently do nothing).  Raises
    :class:`ProtocolError` with a stable ``code`` on any violation.
    """
    if not isinstance(obj, Mapping):
        raise ProtocolError(E_BAD_REQUEST, "request must be a JSON object")
    version = obj.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(E_BAD_VERSION,
                            f"unsupported protocol version {version!r} "
                            f"(this server speaks v{PROTOCOL_VERSION})")
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(E_UNKNOWN_OP,
                            f"unknown op {op!r}; known: {list(OPS)}")
    request_id = _request_id(obj)
    if op == "adapt":
        unknown = set(obj) - _ADAPT_FIELDS
        if unknown:
            raise ProtocolError(E_BAD_REQUEST,
                                f"unknown fields for adapt: {sorted(unknown)}")
        if "dimming" not in obj:
            raise ProtocolError(E_BAD_REQUEST,
                                "missing required field 'dimming'")
        return AdaptRequest(
            dimming=_require_number(obj, "dimming", 0.5, lo=0.0, hi=1.0,
                                    lo_open=True, hi_open=True),
            ambient=_require_number(obj, "ambient", 1.0, lo=0.0, hi=1.0),
            distance_m=_require_number(obj, "distance_m", 3.0,
                                       lo=0.0, hi=1e3, lo_open=True),
            angle_deg=_require_number(obj, "angle_deg", 0.0,
                                      lo=0.0, hi=90.0, hi_open=True),
            id=request_id,
        )
    if op == "link":
        unknown = set(obj) - _LINK_FIELDS
        if unknown:
            raise ProtocolError(E_BAD_REQUEST,
                                f"unknown fields for link: {sorted(unknown)}")
        report = obj.get("report")
        if report is None:
            return LinkRequest(id=request_id)
        if not isinstance(report, Mapping):
            raise ProtocolError(E_BAD_REQUEST,
                                "link report must be a JSON object")
        unknown = set(report) - {"outcome", "reason"}
        if unknown:
            raise ProtocolError(
                E_BAD_REQUEST, f"unknown report fields: {sorted(unknown)}")
        outcome = report.get("outcome")
        if outcome not in LINK_OUTCOMES:
            raise ProtocolError(
                E_BAD_REQUEST,
                f"report outcome must be one of {list(LINK_OUTCOMES)}, "
                f"got {outcome!r}")
        reason = report.get("reason", "ack-loss")
        if not isinstance(reason, str) or not reason:
            raise ProtocolError(E_BAD_REQUEST,
                                "report reason must be a non-empty string")
        return LinkRequest(outcome=outcome, reason=reason, id=request_id)
    unknown = set(obj) - _SIMPLE_FIELDS
    if unknown:
        raise ProtocolError(E_BAD_REQUEST,
                            f"unknown fields for {op}: {sorted(unknown)}")
    return SimpleRequest(op=op, id=request_id)


def decode_json(raw: bytes | str) -> Any:
    """One decoded JSON document, or a ``bad-request`` ProtocolError."""
    try:
        return json.loads(raw)
    except UnicodeDecodeError as exc:
        # json.loads(bytes) decodes before parsing; invalid UTF-8 is a
        # client framing error, not a server fault.
        raise ProtocolError(E_BAD_REQUEST,
                            f"not UTF-8: {exc.reason} at byte "
                            f"{exc.start}") from exc
    except ValueError as exc:
        # A JSONDecodeError, or an integer literal past the interpreter's
        # digit limit, which json.loads reports as a bare ValueError.
        raise ProtocolError(E_BAD_REQUEST, f"not JSON: {exc}") from exc


def parse_line(line: bytes) -> "AdaptRequest | LinkRequest | SimpleRequest":
    """Parse one NDJSON request line (bytes, trailing newline allowed)."""
    return parse_request(decode_json(line))


# -- responses ---------------------------------------------------------


def ok_response(op: str, result: Mapping[str, Any],
                request_id: str | None = None) -> dict:
    """A successful reply envelope."""
    reply: dict[str, Any] = {"v": PROTOCOL_VERSION, "op": op, "ok": True,
                             "result": dict(result)}
    if request_id is not None:
        reply["id"] = request_id
    return reply


def error_response(code: str, message: str, *, op: str | None = None,
                   request_id: str | None = None) -> dict:
    """A structured error reply (stable ``code``, readable ``message``)."""
    reply: dict[str, Any] = {
        "v": PROTOCOL_VERSION, "ok": False,
        "error": {"code": code, "message": message},
    }
    if op is not None:
        reply["op"] = op
    if request_id is not None:
        reply["id"] = request_id
    return reply


def encode(obj: Mapping[str, Any]) -> bytes:
    """Canonical NDJSON encoding: sorted keys, minimal separators.

    Canonicality is what makes the parity contract testable: the same
    design serialized twice is the same bytes.
    """
    return (json.dumps(obj, sort_keys=True,
                       separators=(",", ":")) + "\n").encode()


def adapt_result(request: AdaptRequest, design: AmppmDesign,
                 errors: SlotErrorModel, config: SystemConfig,
                 target: float) -> dict:
    """The ``adapt`` result payload for a finished design.

    ``dimming_error`` is measured against ``target``, the request's
    dimming clamped to the supported range.  Pure in its arguments —
    the server and the parity tests build responses through this one
    function, so a served design is byte-identical to the direct
    designer answer.
    """
    ss = design.super_symbol
    return {
        "dimming": request.dimming,
        "achieved_dimming": design.achieved_dimming,
        "dimming_error": abs(design.achieved_dimming - target),
        "super_symbol": {
            "n1": ss.first.n_slots, "k1": ss.first.n_on, "m1": ss.m1,
            "n2": ss.second.n_slots, "k2": ss.second.n_on, "m2": ss.m2,
        },
        "n_slots": ss.n_slots,
        "bits": ss.bits,
        "data_rate_bps": design.data_rate(config, errors),
        "slot_error": {"p_off": errors.p_off_error,
                       "p_on": errors.p_on_error},
    }
