"""The result types: immutable records that behave like frozen dataclasses."""

import copy
import pickle

import pytest

from morsematch import (
    CollapsibilityResult,
    CriticalProfile,
    EdgeComponent,
    ErasabilityResult,
    FrontierResult,
    MorseInequalityReport,
    MorseMatching,
    OracleResult,
    certify,
    dunce_hat,
    erasability,
    frontier_edges_matching,
    full_simplex,
    is_collapsible,
    optimal_morse_matching,
    rp2,
    simplex_boundary,
    wedge,
)

# Each type's public fields, in order, with the defaults of the last ones.
FIELDS = {
    CriticalProfile: (("counts",), {}),
    MorseMatching: (("pairs", "acyclic", "witness"), {"witness": None, "_ids": None}),
    MorseInequalityReport: (("ok", "alternating_failures", "pointwise_failures"), {}),
    EdgeComponent: (("dim", "forward", "backward"), {"_ids": None}),
    FrontierResult: (("morse", "components", "source_matching_size"), {}),
    OracleResult: (("matching", "optimal", "nodes", "pair_upper_bound"), {}),
    CollapsibilityResult: (("collapsible", "indeterminate", "nodes", "sequence"), {}),
    ErasabilityResult: (("er", "witness", "lower", "upper", "indeterminate", "tested"), {}),
}


def _examples():
    """One instance of each type, from the package's own algorithms where cheap."""
    K, matching = simplex_boundary(3)
    front = frontier_edges_matching(wedge(dunce_hat(), 1, 2))
    return [
        CriticalProfile((1, 0, 1)),
        matching,
        MorseInequalityReport(False, (1,), (0, 2)),
        front.components[0],
        front,
        optimal_morse_matching(rp2()),
        is_collapsible(full_simplex(2)),
        erasability(dunce_hat()),
    ]


EXAMPLES = _examples()
IDS = [type(x).__name__ for x in EXAMPLES]


def _values(x):
    return [getattr(x, name) for name in FIELDS[type(x)][0]]


def test_every_result_type_has_an_example():
    assert {type(x) for x in EXAMPLES} == set(FIELDS)


@pytest.mark.parametrize("x", EXAMPLES, ids=IDS)
def test_built_by_position_and_by_keyword(x):
    cls, names = type(x), FIELDS[type(x)][0]
    assert cls(*_values(x)) == x
    assert cls(**dict(zip(names, _values(x)))) == x
    assert cls(*_values(x)[:1], **dict(zip(names[1:], _values(x)[1:]))) == x


def test_morse_matching_defaults():
    pairs = frozenset({((0,), (0, 1))})
    mm = MorseMatching(pairs, True)
    assert (mm.pairs, mm.acyclic, mm.witness, mm._ids) == (pairs, True, None, None)
    assert MorseMatching(acyclic=True, pairs=pairs) == mm


@pytest.mark.parametrize("x", EXAMPLES, ids=IDS)
def test_missing_unknown_and_repeated_fields_raise_type_error(x):
    cls, (names, defaults) = type(x), FIELDS[type(x)]
    required = [v for name, v in zip(names, _values(x)) if name not in defaults]
    with pytest.raises(TypeError, match="missing"):
        cls(*required[:-1])
    with pytest.raises(TypeError):
        cls(*_values(x), bogus=1)
    with pytest.raises(TypeError):
        cls(*_values(x), **{names[0]: _values(x)[0]})
    with pytest.raises(TypeError):
        cls(*_values(x), None, None, None)


@pytest.mark.parametrize("x", EXAMPLES, ids=IDS)
def test_equality_and_hash_go_over_the_fields(x):
    cls, names = type(x), FIELDS[type(x)][0]
    twin = cls(*_values(x))
    assert twin == x and hash(twin) == hash(x) and repr(twin) == repr(x)
    changed = cls(*_values(x)[:-1], "other")
    assert changed != x
    assert x != tuple(_values(x))
    assert repr(x).startswith(f"{cls.__name__}({names[0]}=")


def test_ids_take_no_part_in_equality_hash_or_repr():
    K, matching = simplex_boundary(3)
    mm = certify(K, matching.pairs)
    bare = MorseMatching(mm.pairs, mm.acyclic, mm.witness)
    assert mm._ids is not None and bare._ids is None
    assert mm == bare and hash(mm) == hash(bare) and repr(mm) == repr(bare)
    assert "_ids" not in repr(mm)


@pytest.mark.parametrize("x", EXAMPLES, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(x):
    for name in FIELDS[type(x)][0]:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("x", EXAMPLES, ids=IDS)
def test_pickle_and_copy_round_trips_compare_equal(x):
    assert pickle.loads(pickle.dumps(x)) == x
    assert copy.copy(x) == x
    assert copy.deepcopy(x) == x


def test_a_certified_matching_pickles_without_its_ids():
    # _ids holds the complex the matching was certified on, which does not
    # pickle; the round trip leaves it out, and profiles fall back to pairs
    K, matching = simplex_boundary(3)
    back = pickle.loads(pickle.dumps(matching))
    assert matching._ids is not None and back._ids is None
    assert back == matching


def test_a_frontier_component_builds_its_pairs_on_first_access():
    # bfs_component keeps id pairs only; forward and backward are
    # built from them when read, and a round trip leaves the ids out
    K = wedge(dunce_hat(), 1, 3)
    fresh = frontier_edges_matching(K).components
    back = [pickle.loads(pickle.dumps(c)) for c in fresh]
    assert all(c._ids is not None for c in fresh)
    assert all(b._ids is None for b in back) and back == list(fresh)
    for c in frontier_edges_matching(K).components:
        owner, forward, backward = c._ids
        assert owner is K
        S = K.simplices
        assert c.forward == tuple((S[a], S[b]) for a, b in forward)
        assert c.backward == tuple((S[a], S[b]) for a, b in backward)
        assert repr(c) == repr(EdgeComponent(c.dim, c.forward, c.backward))


def test_a_subclass_that_declares_no_fields_keeps_its_base_fields():
    class Profile(CriticalProfile):
        def doubled(self):
            return tuple(2 * c for c in self.counts)

    p = Profile((1, 0, 1))
    assert p.doubled() == (2, 0, 2) and p.total == 2
    assert Profile(counts=(1,)) == Profile((1,)) != CriticalProfile((1,))
    assert repr(p).endswith(".Profile(counts=(1, 0, 1))")
    with pytest.raises(AttributeError):
        p.counts = ()
