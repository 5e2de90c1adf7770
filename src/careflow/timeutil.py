"""Timestamp and duration helpers.

All instants in the toolkit are timezone-aware UTC datetimes; parsers accept
other offsets and naive values (assumed UTC) but normalize on ingestion.

``parse_timestamp`` has a fast path for the texts ``format_timestamp`` spells:
it returns ``datetime.fromisoformat(text)`` at once when that succeeds with
``tzinfo`` being ``timezone.utc`` itself. That changes no result. The general
path differs only in stripping surrounding whitespace and spelling a trailing
``Z`` as ``+00:00``; ``fromisoformat`` rejects the whitespace and reads such a
``Z`` (where it reads one at all) as the same UTC instant, and ``to_utc`` returns
a UTC value as it is. Every other text (another offset, none, a date alone,
whitespace, junk) takes the general path, so it gives the value or the
``ValueError`` it always gave.
"""

from collections.abc import Callable
from datetime import datetime, timedelta, timezone

_UTC = timezone.utc
_fromisoformat = datetime.fromisoformat


def to_utc(dt: datetime) -> datetime:
    """Normalize a datetime to UTC; naive values are assumed to be UTC."""
    if dt.tzinfo is timezone.utc:
        return dt  # as astimezone would: it returns self for the same tzinfo
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 instant.

    Raises ValueError on unparseable input or an instant outside datetime's range in UTC.
    """
    try:
        instant = _fromisoformat(text)
    except (TypeError, ValueError):
        pass
    else:
        if instant.tzinfo is _UTC:
            return instant
    text = text.strip()
    try:
        # datetime.fromisoformat in 3.10 does not accept a trailing 'Z'
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        return to_utc(datetime.fromisoformat(text))
    except OverflowError:
        raise ValueError(f"{text!r} lies outside the datetime range in UTC") from None


def format_timestamp(dt: datetime) -> str:
    """ISO-8601 with explicit UTC offset, e.g. 2020-04-13T10:30:00+00:00."""
    return to_utc(dt).isoformat()


_TWO_DIGITS = tuple(f"{n:02d}" for n in range(60))


def _utc_speller() -> Callable[[datetime], str]:
    """A function that spells a UTC instant as ``format_timestamp`` does, for the writers,
    which spell one per event. ``isoformat`` of an aware instant costs about three times
    the lookups that replace it here: the function spells each day it meets once and
    looks up the hour, minute and second; an instant with microseconds takes ``isoformat``."""
    days: dict[int, str] = {}

    def spell(instant: datetime) -> str:
        if instant.microsecond:
            return instant.isoformat()
        day = days.get(ordinal := instant.toordinal())
        if day is None:
            day = days[ordinal] = instant.isoformat()[:11]  # "YYYY-MM-DDT"
        return (f"{day}{_TWO_DIGITS[instant.hour]}:{_TWO_DIGITS[instant.minute]}:"
                f"{_TWO_DIGITS[instant.second]}+00:00")

    return spell


def format_duration(td: timedelta) -> str:
    """Render a duration as 'Nd HHh MMm' (minutes rounded down)."""
    total_minutes = int(td.total_seconds() // 60)
    sign = "-" if total_minutes < 0 else ""
    total_minutes = abs(total_minutes)
    days, rest = divmod(total_minutes, 24 * 60)
    hours, minutes = divmod(rest, 60)
    return f"{sign}{days}d {hours:02d}h {minutes:02d}m"

