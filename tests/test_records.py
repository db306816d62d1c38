"""The immutable records of gq3 keep the contract of frozen dataclasses:
equality only within one class, no field assignment, keyword
construction, defaults (a fresh Report.data each time), the
Name(field=value, ...) repr, match class patterns and the validation
messages of each constructor."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import gq3
from gq3 import cohom, records
from gq3.acceptance import CheckResult
from gq3.cohom import MorphismReport, Report
from gq3.freelie import HallElement, bracket_node, generator
from gq3.milnor import FieldPreset, GradedAlgebra, PresetError
from gq3.presentations import Commutator, Generator, Power, Product, Presentation
from gq3.trunc import GroupInvariants, MinimalityReport, TruncElement, TruncGroup, free_truncation
from gq3.zqlin import DimensionMismatch, ZqMatrix, ZqSubspace, zero_subspace


def _record_classes():
    out = []
    for info in pkgutil.iter_modules(gq3.__path__):
        module = importlib.import_module(f"gq3.{info.name}")
        out += [cls for cls in vars(module).values()
                if isinstance(cls, type) and cls.__module__ == module.__name__
                and issubclass(cls, tuple) and hasattr(cls, "_fields")]
    return out


RECORDS = _record_classes()


def test_every_record_is_built_by_the_helper():
    assert len(RECORDS) == 18
    for cls in RECORDS:
        assert cls.__eq__ is records._eq and cls.__ne__ is records._ne, cls
        assert cls.__dict__["__slots__"] == (), cls
        # the annotations document exactly the fields, and no class
        # attribute (a default, say) shadows a field's accessor
        assert tuple(cls.__annotations__) == cls._fields, cls
        assert not set(cls._fields) & set(vars(cls)), cls


def test_equality_is_type_strict():
    g, h = Generator(0), Generator(1)
    assert tuple(Power(g, h)) == tuple(Commutator(g, h))
    assert Power(g, h) != Commutator(g, h)
    assert not Power(g, h) == Commutator(g, h)
    assert Generator(0) != (0,) and (0,) != Generator(0)
    assert not Generator(0) == (0,) and not (0,) == Generator(0)
    x = TruncElement((1, 2), (3,))
    assert x != ((1, 2), (3,)) and ((1, 2), (3,)) != x
    assert x == TruncElement((1, 2), (3,)) and not x != TruncElement((1, 2), (3,))
    assert hash(x) == hash(TruncElement((1, 2), (3,)))
    assert len({Power(g, 2), Power(g, 2), Commutator(g, g)}) == 2
    assert {Generator(0): 1}.get((0,)) is None


def test_fields_cannot_be_assigned():
    m = ZqMatrix(2, 1, 1, ((1,),))
    with pytest.raises(AttributeError):
        m.q = 3
    with pytest.raises(AttributeError):
        m.extra = 1  # no instance dict
    with pytest.raises(AttributeError):
        Generator(0).index = 1
    with pytest.raises(AttributeError):
        Report("v", (), ()).data = {}
    with pytest.raises(AttributeError):
        generator(0).key = ()


def test_defaults_and_keyword_construction():
    a, b = Report("v", (), ()), Report("v", (), ())
    assert a.data == {} and a.data is not b.data
    a.data["x"] = 1
    assert b.data == {} and Report("v", (), ()).data == {}
    assert Report(verdict="v", tests=(), assumptions=(), data={"k": 2}).to_json_dict() == {
        "verdict": "v", "tests": [], "assumptions": [], "k": 2}
    assert cohom.TestOutcome("t", "passed").witness == ""
    assert cohom.TestOutcome(name="t", status="triggered", witness="w").witness == "w"
    assert FieldPreset("two_adic").ell == 0
    assert FieldPreset(kind="finite_field", ell=7).ell == 7
    assert GradedAlgebra(2, 1, {}).basis_names == ()
    assert GradedAlgebra(q=2, gen_count=1, components={}, basis_names=("u",)).basis_names == ("u",)
    assert ZqMatrix(q=2, nrows=1, ncols=2, entries=((1, 0),)) == ZqMatrix(2, 1, 2, ((1, 0),))
    assert ZqSubspace(q=4, ambient_dim=1, basis=((2,),)).basis == ((2,),)
    assert TruncGroup(n=2, q=3, w=zero_subspace(3, 3)) == free_truncation(2, 3)
    p = Presentation(q=2, generators=("x",), relators=(), relator_sources=())
    assert p.n == 1 and p.name_map() == {"x": 0}


def test_hall_elements_keep_their_key_and_order():
    x1, x2, x3 = (HallElement(1, index=k) for k in range(3))
    assert x1.key == (1, 0, 0) and x1.left is None and x1.right is None
    b = bracket_node(x2, x1)
    assert b.key == (2, 1, x2.key, x1.key) and b.sort_key() is b.key
    assert x1 < x2 < x3 < b and b > x1 and x2 >= x2 and x1 <= x1
    assert sorted([b, x3, x1, x2]) == [x1, x2, x3, b]
    assert HallElement(2, left=x2, right=x1) == b and hash(HallElement(2, left=x2, right=x1)) == hash(b)
    assert repr(b) == "[x2,x1]"
    assert copy.deepcopy(b) == b and pickle.loads(pickle.dumps(b)) == b


def test_repr_names_the_fields():
    g = Generator(0)
    assert repr(g) == "Generator(index=0)"
    assert repr(Product((g, Power(Generator(1), -1)))) == (
        "Product(factors=(Generator(index=0), Power(body=Generator(index=1), exponent=-1)))")
    assert repr(Power(g, -2)) == "Power(body=Generator(index=0), exponent=-2)"
    assert repr(cohom.TestOutcome("t", "passed")) == "TestOutcome(name='t', status='passed', witness='')"
    assert repr(ZqSubspace(2, 2, ((1, 0),))) == "ZqSubspace(q=2, ambient_dim=2, basis=((1, 0),))"
    assert repr(FieldPreset("two_adic")) == "FieldPreset(kind='two_adic', ell=0)"
    assert repr(TruncElement((1,), ())) == "TruncElement(e=(1,), c=())"


def test_match_class_patterns():
    match Power(Commutator(Generator(0), Generator(1)), 3):
        case Power(Commutator(Generator(a), Generator(b)), e):
            assert (a, b, e) == (0, 1, 3)
        case _:
            pytest.fail("no match")
    match bracket_node(generator(1), generator(0)):
        case HallElement(2, None, HallElement(1, 1), right):
            assert right == generator(0)
        case _:
            pytest.fail("no match")
    report = MorphismReport(*([True] * 8))
    match report:
        case MorphismReport(pi2_isomorphism=True, agreement=True):
            pass
        case _:
            pytest.fail("no match")


def test_copies_and_pickles_are_equal():
    for value in (ZqSubspace(4, 2, ((1, 2), (0, 2))), free_truncation(2, 4), FieldPreset("tame_local", 13),
                  Report("v", (cohom.TestOutcome("t", "passed"),), ("a",), {"k": [1]})):
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("cls, keys", [
    (MorphismReport, "pi2_isomorphism pi3_isomorphism h1_isomorphism h2_decomposable_isomorphism "
                     "condition_b condition_d agreement target_h2_decomposable_model"),
    (MinimalityReport, "minimal eliminated kept_generators dropped_trivial_relators warnings images"),
    (GroupInvariants, "order abelianization center_order exponent"),
    (cohom.TestOutcome, "name status witness"),
    (CheckResult, "name passed detail seconds"),
])
def test_printed_records_name_their_published_keys(cls, keys):
    """The CLI prints these records by _asdict() (a MinimalityReport
    without its images): each field name is the key of a published report,
    so a new field is a new key."""
    assert cls._fields == tuple(keys.split())


@pytest.mark.parametrize("build, error, message", [
    (lambda: ZqMatrix(6, 0, 0, ()), ValueError, "6 is not a prime power"),
    (lambda: ZqMatrix(1, 0, 0, ()), ValueError, "modulus must be at least 2, got 1"),
    (lambda: ZqMatrix(2, 0, 257, ()), ValueError, "column count 257 out of range"),
    (lambda: ZqMatrix(2, 2, 1, ((0,),)), DimensionMismatch, "row count does not match entries"),
    (lambda: ZqMatrix(2, 1, 2, ((0,),)), DimensionMismatch, "ragged rows"),
    (lambda: ZqMatrix(2, 1, 1, ((2,),)), ValueError, "entry not reduced mod q"),
    (lambda: ZqSubspace(64, 1, ()), ValueError, "modulus 64 exceeds cap 32"),
    (lambda: ZqSubspace(2, -1, ()), ValueError, "ambient dimension -1 out of range"),
    (lambda: ZqSubspace(2, 2, ((1,),)), DimensionMismatch, "basis row length mismatch"),
    (lambda: ZqSubspace(2, 1, ((0,),)), ValueError, "zero basis row"),
    (lambda: ZqSubspace(3, 1, ((-1,),)), ValueError, "basis entry not reduced mod q"),
    (lambda: TruncGroup(2, 10, zero_subspace(2, 3)), ValueError, "10 is not a prime power"),
    (lambda: TruncGroup(9, 2, zero_subspace(2, 3)), ValueError, "generator count 9 outside 0..8"),
    (lambda: TruncGroup(2, 2, zero_subspace(2, 2)), ValueError,
     "central subspace has wrong ambient dimension or modulus"),
    (lambda: TruncGroup(2, 2, zero_subspace(4, 3)), ValueError,
     "central subspace has wrong ambient dimension or modulus"),
    (lambda: FieldPreset("p_adic", 5), PresetError, "unknown preset 'p_adic'"),
    (lambda: FieldPreset("finite_field"), PresetError, "residue characteristic 0 must be a prime <= 10000"),
    (lambda: FieldPreset("tame_local", 9), PresetError, "residue characteristic 9 must be a prime <= 10000"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
