"""A plain base class for the toolkit's result records.

A record lists its fields in ``__slots__``, in constructor order, and names a
zero-argument factory for each trailing field that has a default in
``_defaults``.  It gets a constructor taking the fields by position or by
keyword, field-wise ``==`` between records of one class, a
``Name(field=value, ...)`` repr and pickling.  A field is set once, by the
constructor: assigning or deleting one raises AttributeError.  Records are
unhashable unless a subclass defines ``__hash__``.
"""


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
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

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()
