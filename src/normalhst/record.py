"""
Immutable value records, built without generated code.

Every result and input class of the package derives from
:class:`Record`.  A record class names its fields in ``__slots__``
(adding ``"__dict__"`` when it caches properties) and stores them in its
own ``__init__`` with :func:`setfield`, after any checks; a value
derived from the fields is kept with :class:`derived`.  The base gives
what a frozen dataclass gives: assigning or deleting an attribute raises
:class:`FrozenInstanceError`, two records are equal exactly when they are
of the same class with equal fields, the hash is that of the fields, and
the repr lists them.  A class with a field kept on the class, not in a
slot, names all its fields in ``_fields``.  Each constructor parameter
names a field, so copy, deepcopy and pickle rebuild a record by calling
its class with those fields.  Nothing is generated or ``exec``-ed, so
defining a record class costs what a plain class costs.
"""

from operator import attrgetter

# Stores a field: the records' own __setattr__ refuses every assignment.
setfield = object.__setattr__


def numeral(text):
    """The value of a canonical decimal numeral, or None.

    A canonical numeral is ASCII digits with no sign, underscore or
    leading zero but for ``0`` itself, so ``str`` writes its value back
    unchanged.  A minus sign before a nonzero one reads as a negative
    number, which a caller that needs a nonnegative value rejects as
    out of range.  A numeral longer than Python's integer conversion
    limit (4300 digits by default) also reads as None.
    """
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit() \
            and (digits[0] != "0" or text == "0"):
        try:
            return int(text)
        except ValueError:
            pass
    return None


def quoted(x):
    """x's repr for an error message, cut after 60 characters and then
    marked ``...``, so an error line that quotes a 5000-digit numeral,
    a long string or a deeply nested list stays short."""
    text = repr(x)
    return text if len(text) <= 60 else text[:60] + "..."


def json_int(x, error=TypeError):
    """x if it is a JSON integer, else ``error`` is raised.

    Floats, strings and booleans (``bool`` is a subclass of ``int``)
    are rejected rather than coerced.  The message quotes x with
    :func:`quoted`.
    """
    if type(x) is not int:
        raise error(f"expected an integer, got {quoted(x)}")
    return x


def json_array(x, length=None, error=TypeError):
    """x if it is a JSON array, of ``length`` entries when one is given,
    else ``error`` is raised; an object or a string is no array."""
    if type(x) is not list or length not in (None, len(x)):
        entries = "" if length is None else f" of {length} entries"
        raise error(f"expected an array{entries}, got {quoted(x)}")
    return x


class derived:
    """A value computed from a record on its first read and kept in the
    record's ``__dict__``, as ``functools.cached_property`` does, but
    without the lock that Python 3.11 takes on every first read.  It is
    a non-data descriptor, so once the value is stored a read finds it
    in the instance dict and does not call this class at all."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, record, cls=None):
        if record is None:
            return self
        value = record.__dict__[self.name] = self.fn(record)
        return value


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting an attribute of a record."""


class Record:
    """Base of immutable records with value equality over ``_fields``."""

    __slots__ = ()
    _fields = ()
    _arguments = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in cls.__dict__:
            # The names of the constructor's parameters, each a field.
            code = cls.__init__.__code__
            cls._arguments = code.co_varnames[1:code.co_argcount]
        if "_fields" not in cls.__dict__:
            slots = cls.__dict__.get("__slots__", ())
            if not slots:               # a subclass adding no field
                return
            cls._fields = tuple(name for name in slots if name != "__dict__")
        # The field values, as a tuple when there are two or more.
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        """Rebuild through the constructor, which copy and pickle then
        call: their default would restore the slots by assignment, which
        a record refuses.  Derived values are not copied; a copy computes
        them again on first read."""
        return type(self), tuple([getattr(self, name)
                                  for name in self._arguments])

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
