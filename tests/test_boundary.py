"""Boundary sweep: every single-node mutation of every subcommand's canonical input.

Each JSON node of each input file is replaced by one malformed value from a
fixed set, or deleted.  Every run must end with exit status 0, or with exit
status 2 and exactly one ``error[...]`` line; an escaping exception fails.
A deterministic hypothesis search then mutates two to four nodes at once of
the series- and matrix-bearing inputs and of the supernumber inputs under the
same rule.
"""
import collections
import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasschur import AlgebraContext, SuperMatrix
from grasschur.cli import main
from grasschur.schur import InterpolationData
from grasschur.series import SeriesMatrix
from grasschur.serialization import (
    interpolation_data_to_obj,
    matrix_to_obj,
    series_to_obj,
    supernumber_to_obj,
    toeplitz_spec_to_obj,
)
from grasschur.toeplitz import ToeplitzSpec

_HUGE = "__1e400__"  # written as the JSON number 1e400, which Python reads as inf
MALFORMED = (5, "abc", [], {}, None, True, _HUGE, 10**30)
_DELETE = object()
FLAGS = ["--generators", "2", "--degree", "2"]


def _canonical_inputs():
    """(argv template, {flag: canonical document}) per subcommand, on small inputs."""
    ctx = AlgebraContext(generators=2, max_series_degree=2)
    z = supernumber_to_obj(ctx.scalar(2.0) + ctx.generator(1) * 0.5)
    w = supernumber_to_obj(ctx.scalar(0.5j) + ctx.generator(2))
    half = supernumber_to_obj(ctx.scalar(0.5))
    one = supernumber_to_obj(ctx.one())
    p_blaschke = supernumber_to_obj(ctx.scalar(4.0 / 3.0))  # p - a†pa = c†c at a = 1/2, c = 1
    point = supernumber_to_obj(ctx.scalar(0.3) + ctx.generator(1) * ctx.generator(2))
    spec = toeplitz_spec_to_obj(ToeplitzSpec((ctx.scalar(1.0), ctx.scalar(0.25) + ctx.generator(1) * 0.1)))
    data = interpolation_data_to_obj(InterpolationData((ctx.scalar(0.2),), (ctx.scalar(0.3),)))
    sigma = series_to_obj(SeriesMatrix.from_coeffs([SuperMatrix.from_body(ctx, [[0.1]])]))
    series = series_to_obj(SeriesMatrix.from_coeffs(
        [SuperMatrix.from_body(ctx, [[b]]) for b in (0.5, 0.25, 0.1)]))
    c = matrix_to_obj(SuperMatrix.from_body(ctx, [[1.0], [0.5]]))
    a = matrix_to_obj(SuperMatrix.from_body(ctx, [[0.4]]))
    j = matrix_to_obj(SuperMatrix.from_body(ctx, np.diag([1.0, -1.0])))
    p = matrix_to_obj(SuperMatrix.from_body(ctx, [[0.75 / 0.84]]))  # P - A*PA = C*JC = 1 - 0.25
    return [
        (["algebra", "invert"], {"--in": z}),
        (["algebra", "classify"], {"--in": z, "--config": {"generators": 2, "degree": 2}}),
        (["algebra", "sqrt"], {"--in": z}),
        (["algebra", "mul"], {"--in": z, "--rhs": w}),
        (["toeplitz", "extend"], {"--spec": spec, "--eta": half}),
        (["np", "solve"], {"--data": data, "--sigma": sigma}),
        (["schur", "run", "--max-steps", "2"], {"--series": series}),
        (["blaschke", "eval"], {"--a": half, "--c": one, "--p": p_blaschke, "--at": point}),
        (["theta", "build"], {"--C": c, "--A": a, "--J": j, "--P": p}),
    ]


def _paths(node, path=()):
    """Every node's path, the root included."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutated(doc, edits):
    """A copy of doc with each (path, value) edit applied in turn: the node replaced by
    the value, or deleted for _DELETE; an edit whose path an earlier one removed is skipped."""
    mutated = json.loads(json.dumps(doc))
    for path, value in edits:
        parent = mutated
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)  # [] and {} must not be shared
        except (KeyError, IndexError, TypeError):
            continue
    return mutated


def _mutations(doc):
    """Documents with one node replaced by each malformed value, or deleted; the root is only replaced."""
    yield from MALFORMED
    for path in list(_paths(doc))[1:]:
        for value in MALFORMED + (_DELETE,):
            yield _mutated(doc, [(path, value)])


def _text(doc) -> str:
    return json.dumps(doc).replace(f'"{_HUGE}"', "1e400")


CASES = _canonical_inputs()


def _run(command, docs, paths, capsys) -> tuple[int, list[str]]:
    """Write the documents, run the subcommand on them, return its status and stderr lines."""
    for flag, doc in docs.items():
        paths[flag].write_text(_text(doc))
    status = main(command + [x for flag, path in paths.items() for x in (flag, str(path))] + FLAGS)
    return status, capsys.readouterr().err.splitlines()


def _ends_well(status: int, err: list[str]) -> bool:
    return status == 0 or (status == 2 and len(err) == 1 and err[0].startswith("error["))


@pytest.mark.parametrize("command,inputs", CASES, ids=[" ".join(command[:2]) for command, _ in CASES])
def test_single_node_mutations(command, inputs, tmp_path, capsys):
    paths = {flag: tmp_path / f"{flag.strip('-')}.json" for flag in inputs}
    assert _run(command, inputs, paths, capsys)[0] == 0, "the canonical input must succeed"
    for flag, doc in inputs.items():
        for mutated in _mutations(doc):
            try:
                status, err = _run(command, {**inputs, flag: mutated}, paths, capsys)
            except Exception as exc:  # name the mutation that escaped
                pytest.fail(f"{' '.join(command)} {flag} {_text(mutated)}: {exc!r}")
            assert _ends_well(status, err), (flag, mutated, status, err)


# the series- and matrix-bearing inputs and the supernumber inputs, with the examples
# each takes: all but the series take fewer, which keeps the search to about 15 s of
# tier-1 time in all
MULTI_NODE_CASES = [(command, inputs, flag, 300 if flag in ("--sigma", "--series") else 150)
                    for command, inputs in CASES
                    for flag in ("--sigma", "--series", "--C", "--A", "--J", "--P", "--spec", "--data",
                                 "--a", "--c", "--p", "--at", "--in", "--rhs", "--eta")
                    if flag in inputs]


_FLAG_USES = collections.Counter(flag for _, _, flag, _ in MULTI_NODE_CASES)


@pytest.mark.parametrize("command,inputs,flag,examples", MULTI_NODE_CASES,  # a shared flag is named with its verb
                         ids=[flag if _FLAG_USES[flag] == 1 else f"{flag}-{command[1]}"
                              for command, _, flag, _ in MULTI_NODE_CASES])
def test_multi_node_series_mutations(command, inputs, flag, examples, tmp_path, capsys):
    paths = {f: tmp_path / f"{f.strip('-')}.json" for f in inputs}
    nodes = list(_paths(inputs[flag]))[1:]

    @settings(derandomize=True, database=None, max_examples=examples, deadline=None)
    @given(data=st.data())
    def mutate(data):
        picked = data.draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=4, unique=True), label="nodes")
        edits = [(path, data.draw(st.sampled_from(MALFORMED + (_DELETE,)), label=str(path))) for path in picked]
        mutated = _mutated(inputs[flag], edits)
        try:
            status, err = _run(command, {**inputs, flag: mutated}, paths, capsys)
        except Exception as exc:  # name the mutation that escaped
            pytest.fail(f"{' '.join(command)} {flag} {_text(mutated)}: {exc!r}")
        assert _ends_well(status, err), (mutated, status, err)

    mutate()
