"""The one base class for the toolkit's values.

Every value of the toolkit is a record: scalar rings, grading profiles,
variable sets, Poincaré series, the free, commutative and tensor algebras,
their elements, central series, the formal group law tables, action tables
and every result record.  A record class lists its fields in ``__slots__``, in
constructor order; a subclass with ``__slots__ = ()`` keeps its parent's
fields, and one that declares slots appends them.  A record gets a
constructor taking every field by position, with no keywords and no
defaults, field-wise ``==`` between records of one class, a
``Name(field=value, ...)`` repr and pickling.
A class that checks or normalizes its arguments defines ``__init__`` and
passes the normalized fields on to ``Record.__init__``, which must accept its
own fields again, since unpickling calls the class with them, unless it
pickles another way through its own ``__reduce__``.  A field is set once, by
the constructor: assigning or deleting one raises AttributeError.  Where a
constructor runs on a hot path, a private builder may set the fields
through their slot descriptors (``Cls.field.__set__``) instead.
A mapping field that must not change in place is held as a read-only
``types.MappingProxyType``; pickling hands it back as a plain dict, which the
constructor wraps again.  Records are unhashable; a class opts in with
``__hash__ = Record._hash``.  A record whose JSON form is its fields, in
order, opts in with ``to_data = Record._data``, which maps each field through
:func:`plain`.
"""

from operator import attrgetter
from types import MappingProxyType


def plain(value):
    """``value`` in JSON form: ``to_data()`` of anything that has one, a list
    for a list or tuple and a dict for a dict or read-only mapping, item by
    item, and any other value as it is."""
    if hasattr(value, "to_data"):
        return value.to_data()
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, (dict, MappingProxyType)):
        return {key: plain(item) for key, item in value.items()}
    return value


class Record:
    __slots__ = ()
    _fields: tuple = ()
    _values = staticmethod(lambda record: ())  # record -> its field values

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        if cls._fields:
            cls._values = attrgetter(*cls._fields)

    def __init__(self, *args):
        fields = self._fields
        if len(args) != len(fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(fields)} arguments but {len(args)} were given"
            )
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def _hash(self):
        return hash(self._values(self))

    def _data(self):
        return {field: plain(getattr(self, field)) for field in self._fields}

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        values = (getattr(self, field) for field in self._fields)
        return self.__class__, tuple(
            dict(value) if isinstance(value, MappingProxyType) else value for value in values
        )
