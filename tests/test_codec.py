"""The wire codec (``repro.sim.codec``): one rule set for every spec,
result, kind-spec and event record.

The spec families' round trips and pinned hashes live in
``tests/test_executor.py``; this module covers what the codec itself
owns: result and kind-spec round trips, the result header, the rules a
hand-written serializer used to restate, float series, and the
canonical text.
"""

import ast
import json
import math
import pathlib
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.apps.bulk import BulkDownloadResult, BulkDownloadSpec
from repro.core.spec import CcSpec, SchedulerSpec
from repro.experiments.runner import StreamingRunConfig
from repro.net.bandwidth import BandwidthSpec
from repro.net.profiles import lte_config, wifi_config
from repro.sim import codec
from repro.sim.codec import KindSpec, Record
from repro.workloads.web import WebBrowsingResult

finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.sampled_from(("wifi", "lte", "wifi2"))
perf_st = st.none() | st.dictionaries(st.sampled_from(("wall_s", "events")), finite)

bulk_result_st = st.builds(
    BulkDownloadResult,
    scheduler=st.sampled_from(("minrtt", "ecf")),
    size=st.integers(min_value=1, max_value=10**8),
    completion_time=finite,
    payload_by_path=st.dictionaries(names, st.integers(min_value=0, max_value=10**8)),
    ooo_delays_max=finite,
    reinjections=st.integers(min_value=0, max_value=10**4),
    perf=perf_st,
)

web_result_st = st.builds(
    WebBrowsingResult,
    scheduler=st.sampled_from(("minrtt", "ecf")),
    object_completion_times=st.lists(finite, max_size=8),
    ooo_delays=st.lists(finite, max_size=8),
    page_load_time=finite,
    objects_completed=st.integers(min_value=0, max_value=107),
    total_objects=st.integers(min_value=0, max_value=107),
    iw_resets=st.integers(min_value=0, max_value=100),
    reinjections=st.integers(min_value=0, max_value=100),
    perf=perf_st,
)

param_value = st.recursive(
    st.integers() | finite | st.booleans() | st.text(max_size=5) | st.none(),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)
params_st = st.dictionaries(st.sampled_from(("beta", "delta", "seed", "rates")), param_value)
scheduler_spec_st = st.builds(
    lambda kind, params: SchedulerSpec.of(kind, **params),
    st.sampled_from(("minrtt", "ecf", "blest", "daps")),
    params_st,
)
cc_spec_st = st.builds(
    lambda kind, params: CcSpec.of(kind, **params),
    st.sampled_from(("reno", "coupled", "olia", "cubic")),
    params_st,
)


def json_round_trip(value):
    return type(value).from_dict(json.loads(json.dumps(value.to_dict())))


class TestRoundTrips:
    """``from_dict(to_dict(x)) == x`` through JSON, and ``to_dict`` is a
    fixed point of the round trip."""

    @settings(max_examples=60, deadline=None)
    @given(result=bulk_result_st)
    def test_bulk_result(self, result):
        again = json_round_trip(result)
        assert again == result
        assert again.to_dict() == result.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(result=web_result_st)
    def test_web_result(self, result):
        again = json_round_trip(result)
        assert again == result
        assert again.to_dict() == result.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(spec=scheduler_spec_st)
    def test_scheduler_spec(self, spec):
        again = json_round_trip(spec)
        assert again == spec and type(again) is SchedulerSpec
        assert again.to_dict() == spec.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(spec=cc_spec_st)
    def test_cc_spec(self, spec):
        again = json_round_trip(spec)
        assert again == spec and type(again) is CcSpec
        assert again.to_dict() == spec.to_dict()


RESULTS = [
    BulkDownloadResult("ecf", 1_000, 0.5, {"wifi": 600, "lte": 400}, 0.01, 0),
    WebBrowsingResult("minrtt", [0.1, 0.2], [0.0], 0.3, 2, 2, 1, 0),
]


class TestResultHeader:
    @pytest.mark.parametrize("result", RESULTS, ids=lambda r: r.kind)
    def test_header_leads_and_perf_is_absent_while_none(self, result):
        data = result.to_dict()
        assert list(data)[:2] == ["schema_version", "kind"]
        assert data["schema_version"] == codec.SCHEMA_VERSION
        assert data["kind"] == result.kind
        assert "perf" not in data
        object.__setattr__(result, "perf", {"wall_s": 1.0})
        try:
            assert list(result.to_dict())[-1] == "perf"
        finally:
            object.__setattr__(result, "perf", None)

    @pytest.mark.parametrize("result", RESULTS, ids=lambda r: r.kind)
    def test_wrong_schema_version_is_refused(self, result):
        data = result.to_dict()
        data["schema_version"] = 1
        with pytest.raises(ValueError, match="schema_version 1"):
            type(result).from_dict(data)
        del data["schema_version"]
        with pytest.raises(ValueError):
            type(result).from_dict(data)


class LiveProcess:
    """A duck-typed bandwidth process with no ``to_spec``."""

    def attach(self, sim, path):  # pragma: no cover - never run
        pass


class TestRules:
    @pytest.mark.parametrize(
        "process", [LiveProcess(), SchedulerSpec.of("ecf")], ids=["live", "other-family"]
    )
    def test_a_process_field_takes_only_a_bandwidth_spec(self, process):
        config = StreamingRunConfig(wifi_process=process)
        with pytest.raises(TypeError, match="is not serializable; a BandwidthSpec"):
            config.to_dict()

    def test_unknown_keys_are_refused_missing_ones_default(self):
        spec = BulkDownloadSpec("ecf", (wifi_config(2.0), lte_config(8.6)), 1_000)
        wire = spec.to_dict()
        del wire["timeout"]
        assert BulkDownloadSpec.from_dict(wire) == spec
        wire["warp"] = 9
        with pytest.raises(TypeError, match="warp"):
            BulkDownloadSpec.from_dict(wire)

    def test_nested_records_and_tuples(self):
        @dataclass(frozen=True)
        class Leaf(Record):
            pair: Tuple[int, float]
            label: str = "x"

        @dataclass(frozen=True)
        class Tree(Record):
            leaves: Tuple[Leaf, ...]
            weights: List[float]
            table: Dict[str, int]
            grid: Tuple[Tuple[int, float], ...] = ()
            best: Optional[Leaf] = None

        tree = Tree(
            leaves=(Leaf((1, 2.0)), Leaf((3, 4.0), "y")),
            weights=[0.5],
            table={"a": 1},
            grid=((0, 0.1),),
            best=Leaf((5, 6.0)),
        )
        wire = tree.to_dict()
        assert wire == {
            "leaves": [{"pair": [1, 2.0], "label": "x"}, {"pair": [3, 4.0], "label": "y"}],
            "weights": [0.5],
            "table": {"a": 1},
            "grid": [[0, 0.1]],
            "best": {"pair": [5, 6.0], "label": "x"},
        }
        assert wire["weights"] is not tree.weights  # copied, never shared
        assert json_round_trip(tree) == tree
        assert isinstance(Tree.from_dict(wire).leaves[0].pair, tuple)

    def test_one_kind_spec_definition(self):
        for family in (SchedulerSpec, CcSpec, BandwidthSpec):
            assert family.__mro__[1] is KindSpec
            assert "to_dict" not in vars(family) and "of" not in vars(family)


class TestFloatSeries:
    """A series is one text whatever container it arrives in: an array of
    any typecode writes as the list of its values does."""

    @pytest.mark.parametrize("values", [
        array("f", [-0.0, 0.1, 2.5]),
        array("i", [1, 2]),
        array("d", [-0.0, 0.1, 2.5]),
    ], ids=lambda values: values.typecode)
    def test_an_array_writes_as_the_list_of_its_values(self, values):
        as_array = WebBrowsingResult(scheduler="ecf", ooo_delays=values)
        as_list = WebBrowsingResult(scheduler="ecf", ooo_delays=values.tolist())
        assert as_array.ooo_delays.typecode == "d"
        text = codec.canonical_json(as_array.to_dict())
        assert text == codec.canonical_json(as_list.to_dict())

    def test_a_json_writer_reads_any_array_as_doubles(self):
        text = codec.canonical_json({"s": [array("f", [-0.0]), array("i", [1, 2])]})
        assert text == '{"s":[[-0.0],[1.0,2.0]]}'


#: What the piecewise writer must carry byte for byte: both zeros, the
#: smallest subnormal, a float past 2**53, NaN and both infinities; ints,
#: bools and None; strings with quotes, backslashes and non-ASCII text.
canonical_atoms = (
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf])
    | st.floats()
    | st.integers()
    | st.booleans()
    | st.none()
    | st.text(alphabet=st.sampled_from('a"\\\u00e9\u2603\U0001f600\n/'), max_size=6)
)
canonical_items = st.recursive(
    canonical_atoms,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    | st.lists(st.floats(), max_size=3).map(lambda values: array("d", values)),
    max_leaves=6,
)
#: A top-level list past the piece size (4,096 items), built by cycling a
#: drawn pool so a 20,000-item list costs one small draw.
long_lists = st.builds(
    lambda pool, length: [pool[i % len(pool)] for i in range(length)],
    st.lists(canonical_items, min_size=1, max_size=20),
    st.integers(min_value=4097, max_value=20_000) | st.sampled_from([4096, 4097, 8192, 8193]),
)
ONE_SHOT = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=codec.json_default)


def difference(payload):
    """Where ``canonical_json(payload)`` first leaves the one-shot text
    (``None`` if nowhere), with some context: pytest's diff of two long
    texts would take minutes per shrinking step."""
    text, reference = codec.canonical_json(payload), ONE_SHOT.encode(payload)
    if text == reference:
        return None
    pairs = enumerate(zip(text + "\0", reference + "\1"))
    at = next(i for i, (mine, theirs) in pairs if mine != theirs)
    return at, text[max(0, at - 30) : at + 30], reference[max(0, at - 30) : at + 30]


class TestCanonicalJson:
    """A payload with a long top-level list is written piecewise; the text
    is the one-shot encoder's, byte for byte."""

    @settings(max_examples=40, deadline=None)
    @given(
        lists=st.dictionaries(st.text(max_size=6), long_lists, min_size=1, max_size=2),
        others=st.dictionaries(st.text(max_size=6), canonical_items, max_size=4),
    )
    def test_the_text_is_the_one_shot_text(self, lists, others):
        assert difference({**others, **lists}) is None

    @settings(max_examples=20, deadline=None)
    @given(
        keys=st.dictionaries(
            st.integers() | st.floats(allow_nan=False) | st.booleans(), canonical_items, max_size=3
        ),
        values=long_lists,
    )
    def test_a_payload_with_other_keys_is_written_in_one_shot(self, keys, values):
        """The encoder sorts such keys as they are (10 after 7) and then
        writes them as strings ("10" before "7" as text)."""
        assert difference({**keys, 7: values}) is None


SRC = pathlib.Path(repro.__file__).parent
#: Where a hand-written ``to_dict`` / ``from_dict`` may still live: the
#: codec itself, and the two wire forms that are not a field list.
HAND_WRITTEN = {
    "sim/codec.py": {"KindSpec"},
    "experiments/runner.py": {"StreamingRunResult"},
    "perf/counters.py": {"PerfRecord"},
}


def test_serializers_are_written_in_one_place():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name in (
                        "to_dict", "from_dict"
                    ):
                        found.setdefault(str(path.relative_to(SRC)), set()).add(node.name)
    assert found == HAND_WRITTEN
