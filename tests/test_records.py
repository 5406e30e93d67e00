"""Every record class behaves as the ``@dataclass`` it replaced.

``repro.record.Record`` writes ``__init__``, ``==``, ``hash``, ``repr``,
the frozen ``__setattr__``/``__delattr__``, ``replace`` and ``fields``
once, and the hot node classes write their own ``__init__`` (and
``__eq__``/``__hash__``). For each record class in the package this
builds a standard-library twin with :func:`dataclasses.make_dataclass`
(same fields, defaults, compare and repr flags and frozen-ness, and the
class's own ``__post_init__``, ``__repr__`` and ``__getstate__``) and
checks that both agree on sampled values.
"""

import dataclasses
import importlib
import pickle
import pkgutil
import re
from multiprocessing.reduction import ForkingPickler

import pytest

import repro
from repro import record
from repro.record import MISSING, Record


def _record_classes():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    found, stack = [], list(Record.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro."):
            found.append(cls)
    return sorted(set(found), key=lambda cls: (cls.__module__, cls.__qualname__))


CLASSES = _record_classes()


def _twin(cls):
    """The ``@dataclass`` ``cls`` would have been."""
    specs = []
    for spec in record.fields(cls):
        options = {"compare": spec.compare, "repr": spec.repr}
        if spec.default is not MISSING:
            options["default"] = spec.default
        if spec.default_factory is not MISSING:
            options["default_factory"] = spec.default_factory
        specs.append((spec.name, object, dataclasses.field(**options)))
    namespace = {}
    for name in ("__post_init__", "__repr__", "__getstate__"):
        owner = next(c for c in cls.__mro__ if name in vars(c) or c is object)
        if owner not in (Record, object):
            namespace[name] = vars(owner)[name]
    return dataclasses.make_dataclass(
        cls.__name__,
        specs,
        namespace=namespace,
        frozen=cls._record_frozen,
    )


#: Values the ``__post_init__`` checks of some classes accept, by class
#: and field; every other field takes :func:`_sample`.
OVERRIDES = {
    "Diagnostic": {"code": ("OL100", "OL102"), "severity": (None, None)},
    "Fault": {
        "stage": ("lex", "parse"),
        "action": ("raise", "delay"),
        "hit": (0, 1),
        "delay": (0.0, 0.5),
    },
    "FaultPlan": {"faults": ((), ())},
}


def _sample(cls, name, index, variant=0, tmp_path=None):
    """A hashable value for field ``name`` (``variant`` 1 differs)."""
    if cls.__name__ == "ResultCache" and name == "directory":
        return str(tmp_path / f"cache{variant}")
    override = OVERRIDES.get(cls.__name__, {}).get(name)
    if override is not None:
        return override[variant]
    return ("w" if variant else "v", index)


def _values(cls, tmp_path, variant=0):
    return [
        _sample(cls, spec.name, index, variant, tmp_path)
        for index, spec in enumerate(record.fields(cls))
    ]


def _state(obj, specs):
    return [(spec.name, getattr(obj, spec.name)) for spec in specs]


def _text(obj):
    """``repr(obj)`` without the addresses of identity-compared values
    (a ``default_factory`` makes a new one per record)."""
    return re.sub(r" at 0x[0-9a-f]+", "", repr(obj))


def _comparable(state):
    """``state`` with each identity-compared value replaced by its type."""
    return [
        (name, value if type(value).__eq__ is not object.__eq__ else type(value))
        for name, value in state
    ]


@pytest.fixture(params=CLASSES, ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}")
def pair(request, tmp_path):
    cls = request.param
    return cls, _twin(cls), tmp_path


def test_every_former_dataclass_is_a_record():
    # The package declared 100 classes with ``@dataclass``; all but the
    # token stream, a plain class now, are records.
    assert len(CLASSES) >= 99


class TestAgreesWithDataclass:
    def test_fields(self, pair):
        cls, twin, _ = pair
        ours = [
            (f.name, f.default, f.default_factory, f.compare, f.repr)
            for f in record.fields(cls)
        ]
        theirs = [
            (
                f.name,
                MISSING if f.default is dataclasses.MISSING else f.default,
                MISSING
                if f.default_factory is dataclasses.MISSING
                else f.default_factory,
                f.compare,
                f.repr,
            )
            for f in dataclasses.fields(twin)
        ]
        assert ours == theirs
        for f in record.fields(cls):
            if f.default is not MISSING:
                assert getattr(cls, f.name) == f.default
            else:
                assert f.name not in cls.__dict__

    def test_defaults_and_repr(self, pair):
        cls, twin, tmp_path = pair
        specs = record.fields(cls)
        required = [
            value
            for spec, value in zip(specs, _values(cls, tmp_path))
            if spec.default is MISSING and spec.default_factory is MISSING
        ]
        ours, theirs = cls(*required), twin(*required)
        assert _comparable(_state(ours, specs)) == _comparable(
            _state(theirs, specs)
        )
        assert _text(ours) == _text(theirs)
        full = _values(cls, tmp_path)
        assert repr(cls(*full)) == repr(twin(*full))
        named = {spec.name: value for spec, value in zip(specs, full)}
        assert repr(cls(**named)) == repr(twin(**named))

    def test_eq_and_hash(self, pair):
        cls, twin, tmp_path = pair
        specs = record.fields(cls)
        values = _values(cls, tmp_path)
        a, b = cls(*values), cls(*values)
        ta, tb = twin(*values), twin(*values)
        assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
        assert (a == values) == (ta == values)
        if twin.__hash__ is None:
            assert cls.__hash__ is None
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(ta) == hash(b)
            assert hash(a) == hash(a)
        for index, spec in enumerate(specs):
            other = list(values)
            other[index] = _sample(cls, spec.name, index, 1, tmp_path)
            if other[index] == values[index]:
                continue
            assert (a == cls(*other)) == (ta == twin(*other)), spec.name

    def test_replace(self, pair):
        cls, twin, tmp_path = pair
        specs = record.fields(cls)
        values = _values(cls, tmp_path)
        a, ta = cls(*values), twin(*values)
        assert repr(record.replace(a)) == repr(dataclasses.replace(ta))
        for index, spec in enumerate(specs):
            change = {spec.name: _sample(cls, spec.name, index, 1, tmp_path)}
            ours = record.replace(a, **change)
            theirs = dataclasses.replace(ta, **change)
            assert type(ours) is cls
            assert _state(ours, specs) == _state(theirs, specs)
            assert (ours == a) == (theirs == ta)
        with pytest.raises(TypeError):
            record.replace(a, no_such_field=1)

    def test_frozen(self, pair):
        cls, twin, tmp_path = pair
        values = _values(cls, tmp_path)
        a, ta = cls(*values), twin(*values)
        for spec in record.fields(cls):
            for obj in (a, ta):
                if cls._record_frozen:
                    with pytest.raises(AttributeError):
                        setattr(obj, spec.name, 0)
                    with pytest.raises(AttributeError):
                        delattr(obj, spec.name)
                else:
                    setattr(obj, spec.name, ("x",))
            assert getattr(a, spec.name) == getattr(ta, spec.name)

    def test_forking_pickler_round_trip(self, pair):
        cls, twin, tmp_path = pair
        specs = record.fields(cls)
        values = _values(cls, tmp_path)
        a = cls(*values)
        if cls.__hash__ is not None:
            hash(a)
        copy = pickle.loads(ForkingPickler.dumps(a))
        assert type(copy) is cls
        theirs = twin(*values)
        state = getattr(theirs, "__getstate__", lambda: vars(theirs))()
        assert _state(copy, specs) == [
            (spec.name, state.get(spec.name, getattr(cls, spec.name, None)))
            for spec in specs
        ]
        assert "_hash" not in vars(copy)
        if cls.__hash__ is not None:
            assert copy == a and hash(copy) == hash(a)

    def test_bad_arguments(self, pair):
        cls, twin, tmp_path = pair
        values = _values(cls, tmp_path)
        for args, kwargs in (
            (values + ["extra"], {}),
            (values, {"no_such_field": 1}),
        ):
            with pytest.raises(TypeError):
                twin(*args, **kwargs)
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
        required = [
            spec.name
            for spec in record.fields(cls)
            if spec.default is MISSING and spec.default_factory is MISSING
        ]
        if required:
            with pytest.raises(TypeError):
                twin()
            with pytest.raises(TypeError):
                cls()
            with pytest.raises(TypeError):
                cls(values[0], **{required[0]: values[0]})


class TestRecordBase:
    def test_hash_is_computed_once_and_not_pickled(self):
        from repro.logic.terms import App, Const, Pred

        pred = Pred("p", (App("f", (Const("c"),)),))
        assert "_hash" not in vars(pred)
        first = hash(pred)
        assert vars(pred)["_hash"] == first == hash(("p", pred.args))
        pred.atom
        state = pred.__getstate__()
        assert set(state) == {"name", "args"}

    def test_frozen_error_is_an_attribute_error(self):
        from repro.errors import SourcePosition

        position = SourcePosition(1, 2)
        with pytest.raises(record.FrozenInstanceError, match="cannot assign"):
            position.line = 3
        assert issubclass(record.FrozenInstanceError, AttributeError)
