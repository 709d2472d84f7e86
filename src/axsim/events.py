"""The one representation of recorded events: five parallel typed columns.

The engine appends each accepted event to an `EventTable`; event logs are
written from and parsed into its columns, replay and backward tracing read
them, and an `ArrowLog` is a view of the same table. A row reads back as an
`UpdateEvent`, so code that indexes or iterates events sees the same values
as a list of tuples would hold. A column entry takes 8 bytes, so a logged
event takes 40 bytes.
"""
from __future__ import annotations

from array import array
from typing import NamedTuple

from .core import InvalidInput


class UpdateEvent(NamedTuple):
    """One accepted event, as a row of an `EventTable` reads back."""
    time: float
    target: int
    source: int
    copied_feature: int  # -1 for opinion models
    delta_w: int  # change of total agreement W; flip flag for opinion models


class EventTable:
    """Events as columns `time` (array('d')) and `target`, `source`,
    `copied_feature`, `delta_w` (array('q')), in `UpdateEvent` order.

    A sequence of `UpdateEvent`s: len, iteration, indexing (a slice gives a
    table) and equality with another table or with a list or tuple of rows.
    """
    __slots__ = UpdateEvent._fields

    def __init__(self, time=(), target=(), source=(), copied_feature=(), delta_w=()):
        self.time = array("d", time)
        self.target = array("q", target)
        self.source = array("q", source)
        self.copied_feature = array("q", copied_feature)
        self.delta_w = array("q", delta_w)
        if not (len(self.time) == len(self.target) == len(self.source)
                == len(self.copied_feature) == len(self.delta_w)):
            raise InvalidInput("event columns differ in length")

    @classmethod
    def _of(cls, columns) -> EventTable:
        """The table of these five columns themselves, which the program made
        with the right types and one length. Nothing is copied or checked."""
        table = cls.__new__(cls)
        table.time, table.target, table.source, table.copied_feature, table.delta_w = columns
        return table

    @classmethod
    def of(cls, events) -> EventTable:
        """`events` as a table: a table as it is, else rows in `UpdateEvent` order."""
        return events if isinstance(events, cls) else cls(*zip(*events))

    def columns(self) -> tuple:
        return (self.time, self.target, self.source, self.copied_feature, self.delta_w)

    def appenders(self) -> tuple:
        """The columns' bound `append`s, in column order: a run loop calls them
        per event without the cost of a method call of its own."""
        return (self.time.append, self.target.append, self.source.append,
                self.copied_feature.append, self.delta_w.append)

    def __len__(self) -> int:
        return len(self.time)

    def __iter__(self):
        return map(UpdateEvent, *self.columns())

    def __getitem__(self, k):
        if isinstance(k, slice):
            return EventTable(*(c[k] for c in self.columns()))
        return UpdateEvent(*(c[k] for c in self.columns()))

    def __eq__(self, other):
        if isinstance(other, EventTable):
            return self.columns() == other.columns()
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # a run appends to its table

    def __repr__(self) -> str:
        return f"EventTable({list(self)!r})"
