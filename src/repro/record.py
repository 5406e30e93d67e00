"""Record classes: ``@dataclass`` behaviour without generated code.

A record class subclasses :class:`Record` and annotates its fields in
the class body, as with ``@dataclass``::

    class Point(Record, frozen=True):
        x: int
        y: int = 0
        label: str = field(default="", compare=False)

Defining the class runs no generated code. ``__init__``, ``__eq__``,
``__hash__``, ``__repr__``, the frozen ``__setattr__``/``__delattr__``,
:func:`replace` and :func:`fields` are written once, here, and read the
class's field list. ``@dataclass`` builds five or six methods from
generated source text for every class, and its module imports
``inspect``, ``ast``, ``dis`` and ``tokenize``; a check starts a fresh
interpreter, so it would pay for both on every run.

The behaviour is that of ``@dataclass`` (``@dataclass(frozen=True)``
for ``frozen=True``):

* fields are the annotated names, base-class fields first, with
  ``default``/``default_factory`` as :func:`field` gives them;
* ``==`` compares records of the same class by the tuple of their
  compared fields (``compare=False`` fields are left out), and ``repr``
  is ``Name(field=value, ...)`` over the ``repr=True`` fields;
* a mutable record is unhashable; a frozen record hashes the tuple of
  its compared fields, computed once and kept in the instance
  ``__dict__`` (``_hash``), and assigning or deleting an attribute
  raises :class:`FrozenInstanceError`, an ``AttributeError``;
* pickling (and so ``copy``/``deepcopy``) drops the per-process caches
  a record lists in ``_per_process``: ``str`` hashes differ from
  process to process, so a hash carried to another one would be wrong.

The generic ``__init__`` takes ``*args, **kwargs`` and then runs
``__post_init__`` if the class has one. It costs several times what a
generated one does, so the classes the parser, vcgen, prover and the
per-implementation pipeline build in bulk write their own ``__init__``
with their real parameter names, and the AST and term nodes their own
``__eq__`` as well, which a shared method cannot make as fast.
"""

from operator import attrgetter
from typing import Any, Callable, Dict, Tuple

__all__ = [
    "MISSING",
    "Field",
    "FrozenInstanceError",
    "Record",
    "field",
    "fields",
    "replace",
]

#: Stores an attribute past a frozen record's ``__setattr__``.
_set = object.__setattr__


#: "No default": distinct from ``None``, which is a legitimate default.
MISSING: Any = object()


class FrozenInstanceError(AttributeError):
    """Raised on assignment to, or deletion of, a frozen record's
    attribute."""


class Field:
    """One field of a record class, as :func:`fields` reports it; called
    as :func:`field` in a class body to give a field options."""

    __slots__ = ("name", "default", "default_factory", "compare", "repr")

    def __init__(
        self,
        *,
        default: Any = MISSING,
        default_factory: Callable[[], Any] = MISSING,
        compare: bool = True,
        repr: bool = True,
    ):
        self.name: str = ""
        self.default = default
        self.default_factory = default_factory
        self.compare = compare
        self.repr = repr


field = Field


def fields(record) -> Tuple[Field, ...]:
    """The fields of a record class or instance, in ``__init__`` order."""
    return record._record_fields


def replace(record, **changes):
    """A new record like ``record`` with ``changes`` applied."""
    for spec in fields(record):
        if spec.name not in changes:
            changes[spec.name] = getattr(record, spec.name)
    return record.__class__(**changes)


def _key_of(names: Tuple[str, ...]):
    """A function from a record to its ``names`` fields: their tuple, but
    the bare value for one name. Kept on the class, so a plain function
    is wrapped as static."""
    if names:
        return attrgetter(*names)
    return staticmethod(lambda record: ())


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _hash_many(self):
    value = self._hash
    if value is None:
        value = hash(self._record_key(self))
        _set(self, "_hash", value)
    return value


def _hash_one(self):
    value = self._hash
    if value is None:
        value = hash((self._record_key(self),))
        _set(self, "_hash", value)
    return value


class Record:
    """The base of every record class (see the module docstring).

    The class keyword ``frozen=True`` makes the class and its subclasses
    frozen.
    """

    #: The fields in ``__init__`` order.
    _record_fields: Tuple[Field, ...] = ()
    #: Instance ``__dict__`` keys that :meth:`__getstate__` drops.
    _per_process: Tuple[str, ...] = ("_hash",)
    #: A frozen record's hash, once computed (then in its ``__dict__``).
    _hash = None
    _record_frozen = False
    _record_post_init = False

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        specs: Dict[str, Field] = {
            spec.name: spec for spec in cls._record_fields
        }
        namespace = cls.__dict__
        for name in namespace.get("__annotations__", {}):
            value = namespace.get(name, MISSING)
            spec = value if isinstance(value, Field) else Field(default=value)
            spec.name = name
            specs[name] = spec
            if spec.default is MISSING:
                if value is not MISSING:
                    delattr(cls, name)
            elif spec is value:
                setattr(cls, name, spec.default)
        cls._record_fields = tuple(specs.values())
        compared = tuple(
            spec.name for spec in cls._record_fields if spec.compare
        )
        cls._record_key = _key_of(compared)
        cls._record_post_init = hasattr(cls, "__post_init__")
        if frozen:
            cls._record_frozen = True
            cls.__setattr__ = _frozen_setattr
            cls.__delattr__ = _frozen_delattr
        # Unless the class body writes its own (a body that defines
        # ``__eq__`` alone gets ``__hash__ = None`` from Python).
        if cls._record_frozen and namespace.get("__hash__") is None:
            cls.__hash__ = _hash_one if len(compared) == 1 else _hash_many

    def __init__(self, *args, **kwargs):
        specs = self._record_fields
        if len(args) > len(specs):
            raise TypeError(
                f"{type(self).__name__}() takes {len(specs)} positional "
                f"argument(s) but {len(args)} were given"
            )
        for spec, value in zip(specs, args):
            _set(self, spec.name, value)
        for spec in specs[len(args):]:
            name = spec.name
            if name in kwargs:
                _set(self, name, kwargs.pop(name))
            elif spec.default is not MISSING:
                _set(self, name, spec.default)
            elif spec.default_factory is not MISSING:
                _set(self, name, spec.default_factory())
            else:
                raise TypeError(
                    f"{type(self).__name__}() missing required argument: "
                    f"{name!r}"
                )
        if kwargs:
            raise TypeError(
                f"{type(self).__name__}() got an unexpected or repeated "
                f"argument {next(iter(kwargs))!r}"
            )
        if self._record_post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._record_key
            mine = key(self)
            theirs = key(other)
            # ``is`` first, as a tuple compares its items.
            return mine is theirs or mine == theirs
        return NotImplemented

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{spec.name}={getattr(self, spec.name)!r}"
            for spec in self._record_fields
            if spec.repr
        )
        return f"{type(self).__qualname__}({parts})"

    def __getstate__(self):
        state = self.__dict__
        for name in self._per_process:
            if name in state:
                return {
                    key: value
                    for key, value in state.items()
                    if key not in self._per_process
                }
        return state

