"""The mlsim dataclasses against what `dataclass` itself generates.

Every mlsim dataclass is declared `@dataclass(init=False, repr=False,
eq=False)` and takes its `__init__` from its class and its `==`, `hash`,
`repr` and frozenness from `errors.Record` and `errors.Value`.  Here each
one is compared with a reference made by `dataclasses.make_dataclass` from
the same fields, frozen but for the four mutable records: on sample
instances, both must give the same answers."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import mlsim
from mlsim.state import Body

MUTABLE = {"ReactionResult", "Model", "ProducedStep", "RunResult"}


def mlsim_dataclasses():
    """Every dataclass defined in a module of `mlsim` (but `mlsim.__main__`,
    which runs the command line when imported), by qualified name."""
    found = {}
    for info in pkgutil.walk_packages(mlsim.__path__, "mlsim."):
        if info.name == "mlsim.__main__":
            continue
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if (inspect.isclass(value) and value.__module__ == info.name
                    and dataclasses.is_dataclass(value)):
                found[f"{info.name}.{name}"] = value
    return found


CLASSES = mlsim_dataclasses()


def test_every_dataclass_is_walked():
    assert len(CLASSES) == 21
    assert MUTABLE <= {cls.__name__ for cls in CLASSES.values()}


def reference(cls):
    """`cls` as `dataclass` would have made it, with `cls`'s own `__hash__`
    (which `dataclass` keeps) when it has one."""
    namespace = {"__hash__": cls.__dict__["__hash__"]} if "__hash__" in cls.__dict__ else {}
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(default=f.default, default_factory=f.default_factory,
                                            repr=f.repr, compare=f.compare))
         for f in dataclasses.fields(cls)],
        frozen=cls.__name__ not in MUTABLE,
        namespace=namespace,
    )


# Two sample values per field, by the name of its annotated type.
SAMPLES = {
    "dict": ({"k": 1}, {"k": [2]}),
    "int": (1, 2),
    "bool": (False, True),
    "tuple": ((), ("t", 1)),
    "list": ([], [{"k": 1}]),
    "frozenset": (frozenset(), frozenset({"a", "b"})),
}


def samples(f):
    annotation = f.type if isinstance(f.type, str) else f.type.__name__
    return SAMPLES.get(annotation.split("[")[0].split(" |")[0], ("a", "b"))


def sample_arguments(cls):
    """Keyword arguments of sample instances: all first values, all second
    values, a copy of the first, and the first with each field in turn
    given its second value."""
    fields = dataclasses.fields(cls)
    first = {f.name: samples(f)[0] for f in fields}
    second = {f.name: samples(f)[1] for f in fields}
    return [first, second, dict(first)] + [{**first, f.name: second[f.name]} for f in fields]


def outcome(call):
    """What `call()` returns, or the type and text of what it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


@pytest.fixture(params=sorted(CLASSES), ids=lambda name: name.rsplit(".", 1)[1])
def classes(request):
    cls = CLASSES[request.param]
    return cls, reference(cls)


def test_nothing_is_generated_at_import(classes):
    cls, _ = classes
    params = cls.__dataclass_params__
    assert (params.init, params.repr, params.eq) == (False, False, False)
    assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "(")


def test_equality_hash_and_repr_agree_with_the_reference(classes):
    cls, ref = classes
    arguments = sample_arguments(cls)
    ours = [cls(**kwargs) for kwargs in arguments]
    theirs = [ref(**kwargs) for kwargs in arguments]
    for i, (a, ra) in enumerate(zip(ours, theirs)):
        assert repr(a) == repr(ra)
        assert outcome(lambda: hash(a)) == outcome(lambda: hash(ra))
        assert (a == 1, a != 1) == (ra == 1, ra != 1)
        for b, rb in zip(ours, theirs):
            assert (a == b, a != b) == (ra == rb, ra != rb)
        assert a != theirs[i] and not a == theirs[i]  # another class


def test_records_of_two_classes_are_never_equal():
    """As for the references, each of another class: `HierarchicalCoupling("a",
    "a")` and `InfluenceSelector("a", "a")` compare the same tuple."""
    firsts = [cls(**sample_arguments(cls)[0]) for cls in CLASSES.values()]
    for a in firsts:
        assert [a == b for b in firsts] == [a is b for b in firsts]


def test_assignment_and_deletion_agree_with_the_reference(classes):
    cls, ref = classes
    first = sample_arguments(cls)[0]
    for name in [*first, "other"]:
        ours, theirs = cls(**first), ref(**first)
        assert outcome(lambda: setattr(ours, name, "x")) == outcome(
            lambda: setattr(theirs, name, "x"))
        assert repr(ours) == repr(theirs)
        ours, theirs = cls(**first), ref(**first)
        assert outcome(lambda: delattr(ours, name)) == outcome(lambda: delattr(theirs, name))


def test_replace_and_copies_agree_with_the_reference(classes):
    cls, ref = classes
    first, second = sample_arguments(cls)[:2]
    ours, theirs = cls(**first), ref(**first)
    for name, value in second.items():
        replaced = dataclasses.replace(ours, **{name: value})
        assert type(replaced) is cls
        assert repr(replaced) == repr(dataclasses.replace(theirs, **{name: value}))
        assert replaced == cls(**{**first, name: value})
    # The reference class cannot be imported by name, so it is not pickled:
    # a pickled copy is held to what a deep copy of the reference gives.
    reference_twin = copy.deepcopy(theirs)
    for twin in (copy.deepcopy(ours), pickle.loads(pickle.dumps(ours))):
        assert type(twin) is cls
        assert repr(twin) == repr(reference_twin)
        assert (twin == ours) == (reference_twin == theirs)
        assert outcome(lambda: hash(twin)) == outcome(lambda: hash(reference_twin))


def test_init_takes_the_fields_in_order_with_their_defaults(classes):
    cls, ref = classes
    fields = dataclasses.fields(cls)
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == [f.name for f in fields]
    first = sample_arguments(cls)[0]
    assert cls(*first.values()) == cls(**first)
    required = {f.name: first[f.name] for f in fields
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
    for f in fields:
        default = parameters[f.name].default
        if f.default is not dataclasses.MISSING:
            assert type(default) is type(f.default) and default == f.default
            assert getattr(cls(**required), f.name) is default
        elif f.default_factory is not dataclasses.MISSING:
            made, again = cls(**required), cls(**required)
            assert getattr(made, f.name) == f.default_factory()
            if isinstance(getattr(made, f.name), dict):
                assert getattr(made, f.name) is not getattr(again, f.name)
            given = f.default_factory()
            assert getattr(cls(**required, **{f.name: given}), f.name) is given
            if cls is Body:
                # A body binds its `get` from its attribute dict, so it needs one.
                with pytest.raises(AttributeError):
                    cls(**required, **{f.name: None})
            else:
                assert getattr(cls(**required, **{f.name: None}), f.name) is None
        else:
            assert default is inspect.Parameter.empty
    assert repr(cls(**required)) == repr(ref(**required))
