"""Frozen value records: the part of `@dataclass(frozen=True)` this package uses.

A subclass of `Record` names its fields in annotations, in order, and
gives defaults as class attributes.  A record is a tuple of its field
values: at class creation the subclass gets a generated
`__new__(cls, f1, ..., fk=default)` that builds the tuple in one C-level
`tuple.__new__` call (and then calls `__post_init__` when the class has
one), and one C-level positional getter per field, the one
`collections.namedtuple` installs.  Instances hold no dict of their own,
so a record is smaller than a dataclass instance and as small as a
namedtuple.

Being a tuple, a record is also a read-only sequence of its field
values: `len`, iteration, indexing, unpacking, `in`, `count` and `index`
work on it.  Tuple arithmetic does not: `record + record`,
`record * int` and `int * record` raise `TypeError` unless the class
defines the operator itself, as `PMatrix` defines `+` and `*`.

Apart from that a record behaves as a frozen dataclass does.  Equality
holds only between records of the same class: a record never equals a
plain tuple or a record of another class with the same values (unlike a
namedtuple).
`__eq__` and `__ne__` answer for any other object themselves: returning
`NotImplemented` would let the other side's `tuple.__eq__` compare the
values.  The hash is that of the field tuple, the repr is the dataclass
repr, and records are not ordered.  The tuple layout alone keeps a record
frozen: with empty `__slots__` there is no instance dict, and the
`_tuplegetter` fields have no setter, so assigning or deleting a field, a
property or any other name raises `AttributeError`, through
`object.__setattr__` as well.
Importing `dataclasses` pulls in `inspect`, `ast` and `dis`, and
decorating a class takes several times as long as creating a `Record`
subclass; both costs fall on every command-line run.  `collections` is
already loaded by `functools`.
"""

from collections import _tuplegetter


def _unordered(self, other):
    raise TypeError(f"{type(self).__qualname__} records are not ordered")


def _no_arithmetic(self, other):
    # raising, not NotImplemented: the interpreter would then fall back to
    # tuple concatenation and repetition
    raise TypeError(f"{type(self).__qualname__} records have no tuple arithmetic")


class _RecordType(type):
    # Instances of a tuple subclass get a __dict__ unless the class body
    # declares __slots__; give every record class an empty one.
    def __new__(mcls, name, bases, namespace, **kwargs):
        namespace.setdefault("__slots__", ())
        return super().__new__(mcls, name, bases, namespace, **kwargs)


class Record(tuple, metaclass=_RecordType):
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)
        defaults = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
        if any(n in cls.__dict__ for n in names[:len(names) - len(defaults)]):
            raise TypeError(f"{cls.__qualname__}: field without a default "
                            "follows a field with one")
        values = "".join(f"{n}," for n in names)
        source = "".join(
            [f"def __new__(_cls, {', '.join(names)}):\n"]
            + ([f"    self = _new(_cls, ({values}))\n",
                "    self.__post_init__()\n",
                "    return self\n"] if hasattr(cls, "__post_init__")
               else [f"    return _new(_cls, ({values}))\n"]))
        methods = {}
        exec(source, {"_new": tuple.__new__}, methods)
        new = methods["__new__"]
        new.__defaults__ = defaults or None
        new.__qualname__ = f"{cls.__qualname__}.__new__"
        cls.__new__ = staticmethod(new)
        for index, name in enumerate(names):
            setattr(cls, name, _tuplegetter(index, f"Field {index}: {name}"))
        cls._fields = names

    def __getnewargs__(self):
        # pickle and copy rebuild a record through cls.__new__(cls, *fields)
        return tuple(self)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    __add__ = __mul__ = __rmul__ = _no_arithmetic

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self))
        return f"{type(self).__qualname__}({body})"
