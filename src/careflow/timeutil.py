"""Timestamp and duration helpers.

All instants in the toolkit are timezone-aware UTC datetimes; parsers accept
other offsets and naive values (assumed UTC) but normalize on ingestion.
"""

from datetime import datetime, timedelta, timezone


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


def format_duration(td: timedelta) -> str:
    """Render a duration as 'Nd HHh MMm' (minutes rounded down)."""
    total_minutes = int(td.total_seconds() // 60)
    sign = "-" if total_minutes < 0 else ""
    total_minutes = abs(total_minutes)
    days, rest = divmod(total_minutes, 24 * 60)
    hours, minutes = divmod(rest, 60)
    return f"{sign}{days}d {hours:02d}h {minutes:02d}m"

