"""Immutable value objects, written out by hand instead of generated.

The standard library's record-class decorator imports inspect, ast, dis
and tokenize and compiles each class's methods through exec, which cost
a one-shot CLI call more than its own work.  A Value subclass lists its
fields in __slots__ (with "__dict__" added when a cached_property needs
one) and stores them in a hand-written __init__ through set_field.
Value supplies the rest of what a frozen record class has:

* equality only between instances of the same class, comparing the
  field tuples (never equal to a tuple);
* hash(tuple of the fields in declaration order), so set and dict
  orders are what they were with generated records;
* the repr Name(field=value, ...);
* a __setattr__ and __delattr__ that refuse every write;
* pickling and copying through the constructor.

A class body that defines __eq__ and __hash__ itself keeps them.
"""

from __future__ import annotations

from operator import attrgetter

# stores a field from __init__, past the refusing __setattr__
set_field = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__dict__["__slots__"] if f != "__dict__")
        if len(cls._fields) == 1:
            get = attrgetter(cls._fields[0])

            def key(self):
                return (get(self),)
        else:
            key = attrgetter(*cls._fields)

        # closures over key, so the hot __eq__/__hash__ do no attribute lookup
        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        def __reduce__(self):
            return self.__class__, key(self)

        # a class body may keep its own (UnitQuotient compares by identity)
        for name, method in (("__eq__", __eq__), ("__hash__", __hash__),
                             ("__reduce__", __reduce__)):
            if name not in cls.__dict__:
                setattr(cls, name, method)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
