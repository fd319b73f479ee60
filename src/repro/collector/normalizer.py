"""Normalization of names, identifiers and timestamps.

Section II-A: raw data "come from many devices and network management
systems provided by different vendors, all reporting different
statistics, from different time zones, and at varying intervals.  The
same device may be referenced in different ways by different systems or
at different network layers ...  The timestamps can be a mixture of
local time (depending on the time zone of the device), network time as
defined by the service provider, and GMT."

The Data Collector normalizes everything *at ingest*: all timestamps
become epoch seconds (UTC), all router names become canonical lowercase
short names, and all interface names become the canonical short form
(``se1/0`` instead of ``Serial1/0``).
"""

from __future__ import annotations

import datetime
import re
import sys
from functools import lru_cache
from typing import Dict, Optional

try:
    from zoneinfo import ZoneInfo

    _HAVE_ZONEINFO = True
except ImportError:  # pragma: no cover - python < 3.9
    _HAVE_ZONEINFO = False

#: Fallback fixed offsets (hours from UTC) when tzdata is unavailable.
_FIXED_OFFSETS = {
    "UTC": 0,
    "GMT": 0,
    "US/Eastern": -5,
    "US/Central": -6,
    "US/Mountain": -7,
    "US/Pacific": -8,
}

_INTERFACE_LONG_FORMS = {
    "serial": "se",
    "gigabitethernet": "gi",
    "tengigabitethernet": "te",
    "ethernet": "et",
    "pos": "pos",
    "loopback": "lo",
    "bundle": "bu",
    "multilink": "ml",
}

_TIMESTAMP_FORMATS = (
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S",
    "%b %d %H:%M:%S",  # syslog style, year-less
)

_INTERFACE_NAME = re.compile(r"([a-z]+)([\d/.:]+)$")

#: Entries kept by each normalization memo (the local-midnight table,
#: the interface-name table, a registry's canonical-name table).  Feeds
#: name a few thousand devices and days; hostile input cannot grow a
#: table past this.
MEMO_ENTRIES = 4096

#: Seconds into the day of a two-ASCII-digit ``HH`` / ``MM`` / ``SS``
#: field; a lookup miss (other digits, ``24``, ``60``) means "not the
#: closed form".
_HOUR_SECONDS = {f"{hour:02d}": hour * 3600 for hour in range(24)}
_MINUTE_SECONDS = {f"{minute:02d}": minute * 60 for minute in range(60)}
_SECONDS = {f"{second:02d}": second for second in range(60)}

#: ``(day prefix, zone, default_year)`` -> epoch of that day's local
#: midnight, or ``None`` when the day has no closed form.  A pure memo
#: of :func:`_local_midnight`, bounded by :data:`MEMO_ENTRIES`.
_MIDNIGHTS: Dict[tuple, Optional[float]] = {}
_UNSEEN = object()


class NormalizationError(ValueError):
    """Raised when a record cannot be normalized."""


_QUOTED_FRAGMENT = re.compile(r"'[^']*'|\"[^\"]*\"")


def brief_reason(reason: str, max_length: int = 80) -> str:
    """Collapse a reject reason to a low-cardinality grouping key.

    Quoted fragments (the offending raw values) are stripped so that
    e.g. ``unparseable epoch 'NaN'`` and ``unparseable epoch 'x'``
    count under one reason, and the result is length-bounded so hostile
    input cannot bloat accounting structures.
    """
    collapsed = _QUOTED_FRAGMENT.sub("<…>", reason).strip()
    collapsed = " ".join(collapsed.split())
    return collapsed[:max_length] if collapsed else "unspecified"


def normalize_router_name(raw: str, aliases: Optional[Dict[str, str]] = None) -> str:
    """Canonicalize a router name.

    Strips domain suffixes (``nyc-per1.ispnet.example`` -> ``nyc-per1``),
    lowercases, and applies the alias table (systems that know a router
    only by its loopback or an inventory tag).
    """
    name = raw.strip().lower()
    name = name.split(".")[0]
    if aliases and name in aliases:
        name = aliases[name]
    if not name:
        raise NormalizationError(f"empty router name from {raw!r}")
    return name


@lru_cache(maxsize=MEMO_ENTRIES)
def normalize_interface_name(raw: str) -> str:
    """Canonicalize an interface name to the short vendor form.

    ``Serial1/0`` -> ``se1/0``; ``GigabitEthernet0/2`` -> ``gi0/2``;
    already-short names pass through unchanged.  Memoised (bounded):
    a feed names the same few interfaces on every line.
    """
    name = raw.strip().lower()
    match = _INTERFACE_NAME.match(name)
    if not match:
        raise NormalizationError(f"unparseable interface name {raw!r}")
    prefix, numbering = match.groups()
    prefix = _INTERFACE_LONG_FORMS.get(prefix, prefix)
    return f"{prefix}{numbering}"


def _zone_offset_seconds(timezone: str, when: datetime.datetime) -> float:
    if timezone in ("UTC", "GMT"):
        return 0.0
    if _HAVE_ZONEINFO:
        try:
            zone = ZoneInfo(timezone)
        except Exception:
            zone = None
        if zone is not None:
            offset = when.replace(tzinfo=zone).utcoffset()
            if offset is not None:
                return offset.total_seconds()
    if timezone in _FIXED_OFFSETS:
        return _FIXED_OFFSETS[timezone] * 3600.0
    raise NormalizationError(f"unknown timezone {timezone!r}")


def _parse_local(text: str, default_year: int) -> Optional[datetime.datetime]:
    """The naive local datetime a text stamp spells, or None."""
    if not text.isascii():
        return None  # strptime would read any script's digits
    for fmt in _TIMESTAMP_FORMATS:
        try:
            parsed = datetime.datetime.strptime(text, fmt)
        except ValueError:
            continue
        if parsed.year == 1900:
            parsed = parsed.replace(year=default_year)
        return parsed
    return None


def _to_epoch(local: datetime.datetime, offset: float) -> float:
    return local.replace(tzinfo=datetime.timezone.utc).timestamp() - offset


def _parse_general(raw: str, text: str, timezone: str, default_year: int) -> float:
    """Any accepted spelling: the three text formats, else epoch seconds."""
    parsed = _parse_local(text, default_year)
    if parsed is None:
        try:
            if "_" in text or not text.isascii():
                raise ValueError  # float() reads Python literal syntax
            epoch = float(text)  # already epoch seconds
        except ValueError:
            raise NormalizationError(f"unparseable timestamp {raw!r}") from None
        # reject NaN/inf and values outside any plausible epoch range
        if not (0.0 <= epoch <= 4.0e9):
            raise NormalizationError(f"epoch timestamp out of range: {raw!r}")
        return epoch
    return _to_epoch(parsed, _zone_offset_seconds(timezone, parsed))


def _local_midnight(
    prefix: str, timezone: str, default_year: int
) -> Optional[float]:
    """Epoch of local midnight of the day ``prefix`` spells, or None.

    None when the general path would not parse ``prefix`` plus a time,
    the zone is unknown, or the zone's offset changes during that day
    (a DST transition): only a constant offset makes the epoch linear
    in the time of day.
    """
    midnight = _parse_local(prefix + "00:00:00", default_year)
    if midnight is None:
        return None
    try:
        offset = _zone_offset_seconds(timezone, midnight)
        day_end = midnight.replace(hour=23, minute=59, second=59)
        if _zone_offset_seconds(timezone, day_end) != offset:
            return None
    except NormalizationError:
        return None
    return _to_epoch(midnight, offset)


def parse_timestamp(
    raw: str, timezone: str = "UTC", default_year: int = 2010
) -> float:
    """Parse a raw timestamp string to epoch seconds UTC.

    ``timezone`` is the zone the originating device stamps its logs in
    (from the router's ``clock timezone`` configuration).  Syslog-style
    year-less timestamps get ``default_year``.

    The two fixed-width shapes the feeds emit — ``YYYY-mm-dd HH:MM:SS``
    (or ``T``) and syslog ``Mon dd HH:MM:SS`` — take a closed form:
    the memoised local midnight of the day plus the seconds into it.
    Every other spelling, and every day the closed form cannot serve
    (see :func:`_local_midnight`), goes through :func:`_parse_general`,
    which the closed form must agree with on every input.
    """
    text = raw.strip()
    width = len(text)
    if width == 19 and text[4] == text[7] == "-" and text[13] == text[16] == ":":
        cut = 11
    elif width == 15 and text[3] == text[6] == " " and text[9] == text[12] == ":":
        cut = 7
    else:
        cut = 0
    if cut:
        hours = _HOUR_SECONDS.get(text[cut:cut + 2])
        minutes = _MINUTE_SECONDS.get(text[cut + 3:cut + 5])
        seconds = _SECONDS.get(text[cut + 6:])
        if hours is not None and minutes is not None and seconds is not None:
            key = (text[:cut], timezone, default_year)
            midnight = _MIDNIGHTS.get(key, _UNSEEN)
            if midnight is _UNSEEN:
                midnight = _local_midnight(*key)
                if len(_MIDNIGHTS) >= MEMO_ENTRIES:
                    _MIDNIGHTS.clear()
                _MIDNIGHTS[key] = midnight
            if midnight is not None:
                return midnight + (hours + minutes + seconds)
    return _parse_general(raw, text, timezone, default_year)


def epoch_to_text(timestamp: float) -> str:
    """Render epoch seconds as ``YYYY-mm-dd HH:MM:SS`` UTC (for display)."""
    dt = datetime.datetime.fromtimestamp(timestamp, tz=datetime.timezone.utc)
    return dt.strftime("%Y-%m-%d %H:%M:%S")


class DeviceRegistry:
    """Per-device normalization context: aliases and clock time zones.

    Populated from the config archive (each router's ``clock timezone``)
    and the inventory's alias table; consulted by every source parser.
    """

    def __init__(self) -> None:
        self._timezones: Dict[str, str] = {}
        self._aliases: Dict[str, str] = {}
        #: raw spelling -> canonical name (bounded memo of the alias walk)
        self._canonical: Dict[str, str] = {}

    def register_device(self, name: str, timezone: str = "UTC") -> None:
        """Record a device's canonical name and clock time zone."""
        self._timezones[normalize_router_name(name)] = timezone

    def register_alias(self, alias: str, canonical: str) -> None:
        """Map an alternate identifier onto a canonical name."""
        self._aliases[alias.strip().lower()] = normalize_router_name(canonical)
        self._canonical.clear()

    def canonical_name(self, raw: str) -> str:
        """Canonicalize a raw device name via the alias table.

        Memoised per raw spelling and interned, so a table holds one
        string per device rather than one per row.
        """
        name = self._canonical.get(raw)
        if name is None:
            name = sys.intern(normalize_router_name(raw, self._aliases))
            if len(self._canonical) >= MEMO_ENTRIES:
                self._canonical.clear()
            self._canonical[raw] = name
        return name

    def timezone_of(self, device: str) -> str:
        """The clock time zone a device stamps its logs in."""
        return self._timezones.get(self.canonical_name(device), "UTC")

    def parse_device_timestamp(self, raw: str, device: str) -> float:
        """Parse a timestamp stamped in the device's local clock."""
        return parse_timestamp(raw, self.timezone_of(device))
