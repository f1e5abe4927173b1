"""Frozen value records: the part of `@dataclass(frozen=True)` this package uses.

A subclass of `Record` names its fields in annotations, in order, and
gives defaults as class attributes.  At class creation it gets generated
`__init__`, `__eq__` and `__hash__` methods, as `dataclasses` writes
them; `__init__` calls `__post_init__` when the class has one.  Equality
compares field tuples of objects of the same class only, the hash is
that of the field tuple, and fields cannot be assigned or deleted.
Importing `dataclasses` pulls in `inspect`, `ast` and `dis`, and decorating
a class takes several times as long as creating a `Record` subclass; both
costs fall on every command-line run.
"""


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting an attribute of a record."""


class Record:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)
        defaults = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
        if any(n in cls.__dict__ for n in names[:len(names) - len(defaults)]):
            raise TypeError(f"{cls.__qualname__}: field without a default "
                            "follows a field with one")
        mine = "".join(f"self.{n}," for n in names)
        theirs = "".join(f"other.{n}," for n in names)
        source = "".join(
            [f"def __init__(self, {', '.join(names)}):\n"]
            + [f"    _setattr(self, {n!r}, {n})\n" for n in names]
            + ["    self.__post_init__()\n" if hasattr(cls, "__post_init__")
               else "    pass\n",
               "def __eq__(self, other):\n",
               "    if other.__class__ is self.__class__:\n",
               f"        return ({mine}) == ({theirs})\n",
               "    return NotImplemented\n",
               "def __hash__(self):\n",
               f"    return hash(({mine}))\n"])
        methods = {}
        exec(source, {"_setattr": object.__setattr__}, methods)
        methods["__init__"].__defaults__ = defaults or None
        for name, method in methods.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
        cls._fields = names

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
