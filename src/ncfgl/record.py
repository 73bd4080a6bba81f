"""The one base class for the toolkit's values.

Every value of the toolkit is a record: scalar rings, grading profiles,
variable sets, Poincaré series, the free, commutative and tensor algebras,
their elements, central series, the formal group law tables, action tables
and every result record.  A record class lists its fields in ``__slots__``, in
constructor order, and names a zero-argument factory for each trailing field
that has a default in ``_defaults``; a subclass with ``__slots__ = ()`` keeps
its parent's fields, and one that declares slots appends them.  A record gets
a constructor taking the fields by position or by keyword, field-wise ``==``
between records of one class, a ``Name(field=value, ...)`` repr and pickling.
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
``__hash__ = Record._hash``.
"""

from operator import attrgetter
from types import MappingProxyType


class Record:
    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}
    _values = staticmethod(lambda record: ())  # record -> its field values

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        if cls._fields:
            cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name} got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name} got multiple values for argument {key!r}")
            values[key] = value
        for field in fields:
            if field in values:
                value = values[field]
            elif field in self._defaults:
                value = self._defaults[field]()
            else:
                raise TypeError(f"{name} missing required argument {field!r}")
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

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        values = (getattr(self, field) for field in self._fields)
        return self.__class__, tuple(
            dict(value) if isinstance(value, MappingProxyType) else value for value in values
        )
