"""Canonical format round-trips and reader validation; the streaming writer; copy and pickle."""
import copy
import io
import json
import pickle
import tracemalloc

import numpy as np
import pytest

from grasschur import AlgebraContext, SuperMatrix, dagger
from grasschur.errors import SerializationError
from grasschur.realization import Realization
from grasschur.sampling import random_supermatrix, random_supernumber
from grasschur.serialization import (
    config_from_obj,
    config_to_obj,
    dump,
    dumps,
    interpolation_data_from_obj,
    interpolation_data_to_obj,
    laurent_from_obj,
    laurent_to_obj,
    matrix_from_obj,
    matrix_to_obj,
    realization_from_obj,
    realization_to_obj,
    series_from_obj,
    series_to_obj,
    supernumber_from_obj,
    supernumber_to_obj,
    toeplitz_spec_from_obj,
    toeplitz_spec_to_obj,
)
from grasschur.series import LaurentSeries, SeriesMatrix
from grasschur.toeplitz import ToeplitzSpec, extend, extension_params

ONE = {"rows": 1, "cols": 1, "entries": [[[{"idx": [], "re": 1.0, "im": 0.0}]]]}


class TestSupernumber:
    def test_round_trip(self, ctx, rng):
        for _ in range(20):
            z = random_supernumber(ctx, rng, terms=8, max_grade=6)
            obj = supernumber_to_obj(z)
            assert supernumber_from_obj(obj, ctx) == z

    def test_canonical_term_order(self, ctx):
        z = ctx.basis((3,)) + ctx.basis((1, 2)) + ctx.one()
        obj = supernumber_to_obj(z)
        assert [t["idx"] for t in obj] == [[], [3], [1, 2]]

    def test_rejects_unsorted_idx(self, ctx):
        with pytest.raises(SerializationError):
            supernumber_from_obj([{"idx": [2, 1], "re": 1.0, "im": 0.0}], ctx)

    def test_rejects_duplicate_terms(self, ctx):
        term = {"idx": [1], "re": 1.0, "im": 0.0}
        with pytest.raises(SerializationError):
            supernumber_from_obj([term, term], ctx)

    def test_rejects_out_of_range(self, ctx4):
        with pytest.raises(SerializationError):
            supernumber_from_obj([{"idx": [5], "re": 1.0, "im": 0.0}], ctx4)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10**400,
                                     True, None, "1.0", [1.0]])
    def test_rejects_non_finite_or_non_numeric(self, ctx, bad):
        for part in ("re", "im"):
            term = {"idx": [1], "re": 1.0, "im": 0.0, part: bad}
            with pytest.raises(SerializationError):
                supernumber_from_obj([term], ctx)

    def test_json_round_trip_bytes(self, ctx, rng):
        z = random_supernumber(ctx, rng)
        text = dumps(supernumber_to_obj(z))
        again = dumps(supernumber_to_obj(supernumber_from_obj(json.loads(text), ctx)))
        assert text == again


def oracle(obj) -> str:
    """The canonical text by its definition: CPython's json encoder on the object form."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def entrywise(m):
    """The object form of a matrix built entry by entry, each entry sorted on its own."""
    return {"rows": m.rows, "cols": m.cols, "entries": [[supernumber_to_obj(e) for e in row] for row in m.entries()]}


def forms(z):
    """A supernumber, a 2x2 matrix and a degree-1 series holding it, each with its entrywise object form."""
    m = SuperMatrix.from_rows([[z, z.context.zero()], [z.context.one(), z]])
    f = SeriesMatrix.from_coeffs([m, -m])
    return [(z, supernumber_to_obj(z)), (m, entrywise(m)),
            (f, {"degree": 1, "exact": False, "coeffs": [entrywise(c) for c in f.coeffs]})]


class TestWriter:
    """``dumps`` renders package values byte for byte as json renders their object form."""

    @pytest.mark.parametrize("x", [-0.0, 5e-324, 1e-7, 1e16, 1.7976931348623157e308, -1.7976931348623157e308])
    def test_edge_floats_in_re_and_im(self, ctx, x):
        for value in (complex(x, 0.5), complex(0.5, x)):
            for v, obj in forms(ctx.from_terms({(): value, (2, 5): value, (3,): 1.0})):
                assert dumps(v) == oracle(obj) == dumps(obj)

    def test_random_values(self, ctx, rng):
        for v, obj in forms(random_supernumber(ctx, rng, terms=12, max_grade=6)):
            assert dumps(v) == oracle(obj)
        m = random_supermatrix(ctx, rng, 3, 2)
        assert dumps(m) == oracle(entrywise(m)) == dumps(matrix_to_obj(m))
        f = SeriesMatrix.from_coeffs([m, random_supermatrix(ctx, rng, 3, 2)], exact=True)
        assert dumps(f) == oracle(series_to_obj(f)) and series_to_obj(f)["coeffs"][1] == entrywise(f.coeffs[1])

    def test_generator_64_sets_the_high_key_bit(self):
        ctx64 = AlgebraContext(generators=64)
        z = ctx64.from_terms({(): 1.0, (64,): 0.5 - 2j, (1, 64): -0.25, (3, 40, 64): 1e-3})
        for v, obj in forms(z):
            assert dumps(v) == oracle(obj)

    @pytest.mark.parametrize("exact", [True, False])
    def test_zero_matrix_and_series(self, ctx, exact):
        m = SuperMatrix.zeros(ctx, 2, 3)
        f = SeriesMatrix.from_coeffs([m, m], exact=exact)
        assert len(m.keys) == len(f.keys) == 0 and matrix_to_obj(m)["entries"][0][0] == []
        assert dumps(m) == oracle(matrix_to_obj(m))
        assert dumps(f) == oracle(series_to_obj(f))
        assert dumps(ctx.zero()) == oracle([]) == "[]\n"

    def test_plain_values(self):
        for obj in ({}, [], (), "", "Schur–Grassmann ü\u2603 \"q\" \\ \n", 0, -7, 10**30, None, True,
                    {"é": ["ü", {}, [], ()], "b": {"z": False, "a": [None, 1.5, -0.0]}, "a": (1, 2.5)}):
            assert dumps(obj) == oracle(obj)

    def test_package_values_inside_plain_ones(self, ctx):
        one, eye = ctx.one(), SuperMatrix.identity(ctx, 2)
        assert dumps([one, {"m": eye}]) == oracle([supernumber_to_obj(one), {"m": matrix_to_obj(eye)}])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_raises(self, ctx, bad):
        z = ctx.from_terms({(): 1.0, (1,): complex(0.0, bad)})
        values = [bad, [1.0, {"x": bad}], z, SuperMatrix.from_scalar(z),
                  SeriesMatrix.from_coeffs([SuperMatrix.identity(ctx, 1), SuperMatrix.from_scalar(z)])]
        for v in values:
            with pytest.raises(SerializationError):
                dumps(v)

    def test_unknown_type_raises(self):
        for bad in ({"x": object()}, {1: "int key"}, [1j]):
            with pytest.raises(SerializationError):
                dumps(bad)


class Pieces:
    """A file that keeps each ``write`` call's text."""

    def __init__(self):
        self.pieces = []

    def write(self, piece):
        self.pieces.append(piece)


class TestDump:
    """``dump`` writes ``dumps``'s text in pieces, after checking the whole value."""

    def test_same_text_as_dumps(self, ctx, rng):
        m = random_supermatrix(ctx, rng, 2, 3)
        values = [v for v, _ in forms(random_supernumber(ctx, rng, terms=12, max_grade=6))]
        values += [{}, [], "", None, -0.0, 10**30, {"b": [m, {"z": (1, 2.5)}], "a": []},
                   SeriesMatrix.from_coeffs([SuperMatrix.zeros(ctx, 2, 3)]), SeriesMatrix.from_coeffs([m, -m, m], exact=True)]
        for v in values:
            fp = io.StringIO()
            dump(v, fp)
            assert fp.getvalue() == dumps(v)

    def test_a_series_is_written_one_coefficient_a_call(self, ctx, rng):
        f = SeriesMatrix.from_coeffs([random_supermatrix(ctx, rng, 2, 2) for _ in range(6)])
        fp = Pieces()
        dump({"series": f}, fp)
        assert "".join(fp.pieces) == dumps({"series": f})
        # the key and the opening bracket, one piece per coefficient, the series' tail, the brace, the newline
        assert len(fp.pieces) == f.degree + 5
        assert all(piece.count('"cols"') == 1 for piece in fp.pieces[1:-3])

    def test_memory_of_a_large_series(self, tmp_path):
        """A filled 2x2 degree-32 series at N = 8 is over 7 MiB of text; the writer holds one
        coefficient of it, not the document."""
        ctx8 = AlgebraContext(generators=8)
        rng = np.random.default_rng(8)
        keys = list(range(1 << ctx8.generators))
        f = SeriesMatrix.from_coeffs([SuperMatrix(ctx8, keys, rng.normal(size=(len(keys), 2, 2))
                                                  + 1j * rng.normal(size=(len(keys), 2, 2))) for _ in range(33)])
        path = tmp_path / "f.json"
        tracemalloc.start()
        try:
            with path.open("w", encoding="ascii") as fp:
                dump(f, fp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 7 * 2**20
        assert peak < size / 2, f"writer peak {peak / size:.2f} x the text"


class TestContainers:
    def test_matrix_round_trip(self, ctx, rng):
        m = random_supermatrix(ctx, rng, 3, 2)
        assert matrix_from_obj(matrix_to_obj(m), ctx) == m

    def test_matrix_shape_validation(self, ctx):
        with pytest.raises(SerializationError):
            matrix_from_obj({"rows": 2, "cols": 2, "entries": [[[]]]}, ctx)

    def test_series_round_trip(self, ctx, rng):
        f = SeriesMatrix.from_coeffs(
            [random_supermatrix(ctx, rng, 2, 2) for _ in range(4)], exact=True)
        back = series_from_obj(series_to_obj(f), ctx)
        assert back.coeffs == f.coeffs and back.exact == f.exact

    def test_series_above_the_context_degree_is_a_serialization_error(self, ctx, rng):
        obj = series_to_obj(SeriesMatrix.from_coeffs([random_supermatrix(ctx, rng, 1, 1) for _ in range(5)]))
        with pytest.raises(SerializationError, match="degree 4 exceeds max_series_degree 2"):
            series_from_obj(obj, AlgebraContext(generators=ctx.generators, max_series_degree=2))

    def test_laurent_round_trip(self, ctx, rng):
        f = LaurentSeries(2, {-2: random_supermatrix(ctx, rng, 1, 1),
                              1: random_supermatrix(ctx, rng, 1, 1)})
        back = laurent_from_obj(laurent_to_obj(f), ctx)
        assert back.coeffs == f.coeffs and back.window == f.window
        signed = {"window": 1, "coeffs": {n: {"rows": 1, "cols": 1, "entries": [[[{"idx": [], "re": 1.0, "im": -0.0}]]]}
                                          for n in ("-1", "1")}}
        text = dumps(laurent_to_obj(laurent_from_obj(signed, ctx)))
        assert text == dumps(signed) and text.count("-0.0") == 2  # -0.0 survives on both powers

    def test_zero_laurent_round_trip(self, ctx, rng):
        f = LaurentSeries(3, {-1: random_supermatrix(ctx, rng, 2, 2), 2: random_supermatrix(ctx, rng, 2, 2)})
        zero = f - f
        obj = laurent_to_obj(zero)
        assert obj["coeffs"] == {"0": {"rows": 2, "cols": 2, "entries": [[[], []], [[], []]]}}
        back = laurent_from_obj(json.loads(dumps(obj)), ctx)
        assert back == zero and back.is_zero()
        assert (back.shape, back.window, back.context) == ((2, 2), 3, ctx)

    # power keys must be canonical decimal integers and the window an int: nothing is coerced
    @pytest.mark.parametrize("field,value", [("coeffs", [1]), ("window", "x"), ("window", 1e400), ("window", 1.7),
                                             ("window", True), ("coeffs", {"00": ONE}), ("coeffs", {"+0": ONE}),
                                             ("coeffs", {"-0": ONE}), ("coeffs", {" 0": ONE}),
                                             ("coeffs", {"0": ONE, "00": ONE})])
    def test_laurent_malformed_field(self, field, value, ctx):
        obj = laurent_to_obj(LaurentSeries.constant(SuperMatrix.identity(ctx, 1)))
        obj[field] = value
        with pytest.raises(SerializationError):
            laurent_from_obj(obj, ctx)

    def test_realization_round_trip(self, ctx, rng):
        r = Realization(
            a=random_supermatrix(ctx, rng, 2, 2),
            b=random_supermatrix(ctx, rng, 2, 1),
            c=random_supermatrix(ctx, rng, 1, 2),
            d=random_supermatrix(ctx, rng, 1, 1),
        )
        back = realization_from_obj(realization_to_obj(r), ctx)
        assert back.a == r.a and back.b == r.b and back.c == r.c and back.d == r.d

    def test_toeplitz_round_trip(self, ctx, rng):
        from grasschur import dagger

        s = random_supernumber(ctx, rng, body=0.0)
        spec = ToeplitzSpec((ctx.scalar(2.0) + s + dagger(s), random_supernumber(ctx, rng)))
        back = toeplitz_spec_from_obj(toeplitz_spec_to_obj(spec), ctx)
        assert back.r == spec.r

    def test_interpolation_round_trip(self, ctx, rng):
        from grasschur.schur import InterpolationData

        data = InterpolationData(
            (ctx.scalar(0.3), ctx.scalar(-0.2j)),
            (random_supernumber(ctx, rng, scale=0.2, body=0.1), ctx.scalar(0.4)),
        )
        back = interpolation_data_from_obj(interpolation_data_to_obj(data), ctx)
        assert back.nodes == data.nodes and back.values == data.values

    def test_config_defaults_come_from_the_context(self):
        assert config_from_obj({}) == AlgebraContext(generators=8)
        assert config_from_obj({"degree": 5}) == AlgebraContext(generators=8, max_series_degree=5)

    def test_config_round_trip(self):
        context = AlgebraContext(generators=6, tol_body=1e-9, tol_eq=1e-8, max_series_degree=16)
        assert config_from_obj(config_to_obj(context)) == context


class TestCopyAndPickle:
    """copy.copy, copy.deepcopy and pickle rebuild every value through its checking constructor."""

    @staticmethod
    def round_trips(x):
        return copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))

    def values(self, ctx, rng):
        m = random_supermatrix(ctx, rng, 2, 3)
        signed = SuperMatrix(ctx, [0, 5], [[[1.0, -0.0, 2j], [0.0, 0.0, 1.0]], [[0.5, 0.0, -1.0], [-0.0, 0.0, 0.0]]])
        return [random_supernumber(ctx, rng, terms=8), ctx.zero(), m, signed,
                SeriesMatrix([m, SuperMatrix.zeros(ctx, 2, 3), m * 0.5], exact=True), SeriesMatrix([signed]),
                LaurentSeries(2, {-2: signed, 1: m}), LaurentSeries(1, {0: SuperMatrix.zeros(ctx, 2, 3)})]

    def test_values(self, ctx, rng):
        for x in self.values(ctx, rng):
            for y in self.round_trips(x):
                assert type(y) is type(x) and y == x
                if isinstance(x, SuperMatrix | SeriesMatrix | LaurentSeries):
                    assert y.shape == x.shape and y.stack.tobytes() == x.stack.tobytes()  # -0.0 kept
                    assert not (y.keys.flags.writeable or y.stack.flags.writeable)

    def test_superdisk_params(self, ctx, rng):
        s = random_supernumber(ctx, rng, terms=3, body=0.0)
        spec = ToeplitzSpec((ctx.scalar(2.0) + s + dagger(s),))
        spec = extend(spec, ctx.scalar(0.4j) + ctx.generator(2) * 0.1, extension_params(spec))
        params = extension_params(spec)
        for y in self.round_trips(params):
            assert y == params and y._levinson == params._levinson
        assert copy.deepcopy(spec) == spec
