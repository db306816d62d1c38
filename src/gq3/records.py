"""Immutable records: named tuples that compare like frozen dataclasses.

A plain named tuple equals every tuple with the same items, so
Power(g, h) would equal Commutator(g, h).  A record equals only records
of its own class.  Each record class derives from
record(fields) and declares ``__slots__ = ()`` (the fields are read-only,
and with no instance dict nothing else can be set) and its fields as
bare annotations, for documentation only: a class attribute of a
field's name would hide the field.  Checks on the field values go in
``__new__``.
"""

from collections import namedtuple


def _eq(self, other):
    return type(self) is type(other) and tuple.__eq__(self, other)


def _ne(self, other):
    return type(self) is not type(other) or tuple.__ne__(self, other)


def record(fields: str, defaults: tuple = ()) -> type:
    """Named-tuple base over the space-separated field names, with
    defaults for the last len(defaults) fields and type-strict equality."""
    base = namedtuple("record", fields, defaults=defaults)
    base.__eq__ = _eq
    base.__ne__ = _ne
    base.__hash__ = tuple.__hash__
    return base
