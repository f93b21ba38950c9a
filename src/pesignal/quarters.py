"""Calendar-quarter arithmetic.

Quarters are keyed by (year, index) and identified with their end date
(2004Q3 <-> 2004-09-30). All joins are exact on (year, index), never on
raw dates.
"""

from __future__ import annotations

import re
from datetime import MAXYEAR, MINYEAR, date

from ._record import NamedTuple, checked
from .errors import DataError

_QUARTER_END = {1: (3, 31), 2: (6, 30), 3: (9, 30), 4: (12, 31)}

_QUARTER_RE = re.compile(r"^(\d{4})\s*[Qq]\s*([1-4])$")

_ISO_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def iso_date(text: str) -> date:
    """The date written 'YYYY-MM-DD'. date.fromisoformat alone also takes
    'YYYYMMDD' and week dates from Python 3.11 on; this takes neither."""
    if not _ISO_DATE_RE.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return date.fromisoformat(text)


@checked
class Quarter(NamedTuple):
    """One calendar quarter, e.g. Quarter(2004, 3) ending 2004-09-30."""

    year: int
    index: int

    def _check(self):
        if self.index not in (1, 2, 3, 4):
            raise ValueError(f"quarter index must be 1..4, got {self.index}")

    def __add__(self, quarters: int) -> "Quarter":
        if not isinstance(quarters, int):
            return NotImplemented
        n = (self.year * 4 + (self.index - 1)) + quarters
        return Quarter(n // 4, n % 4 + 1)

    def __sub__(self, other):
        """Quarter - int -> Quarter; Quarter - Quarter -> signed quarter offset."""
        if isinstance(other, int):
            return self + (-other)
        if isinstance(other, Quarter):
            return (self.year * 4 + self.index) - (other.year * 4 + other.index)
        return NotImplemented

    def end_date(self) -> date:
        month, day = _QUARTER_END[self.index]
        return date(self.year, month, day)

    @classmethod
    def of_date(cls, d: date) -> "Quarter":
        return cls(d.year, (d.month - 1) // 3 + 1)

    @classmethod
    def parse(cls, text: str) -> "Quarter":
        """Accepts '2004Q3' in a year end_date can hold, or an ISO date inside the quarter."""
        text = text.strip()
        m = _QUARTER_RE.match(text)
        if m and MINYEAR <= int(m.group(1)) <= MAXYEAR:
            return cls(int(m.group(1)), int(m.group(2)))
        try:
            return cls.of_date(iso_date(text))
        except ValueError:
            raise DataError(f"cannot parse quarter from {text!r}") from None

    def __str__(self) -> str:
        return f"{self.year}Q{self.index}"


def quarter_count(first: Quarter, last: Quarter) -> int:
    """Number of quarters from first to last inclusive."""
    if first > last:
        raise DataError(f"quarter range reversed: {first} > {last}")
    return (last - first) + 1


def quarter_range(first: Quarter, last: Quarter) -> list[Quarter]:
    return [first + k for k in range(quarter_count(first, last))]
