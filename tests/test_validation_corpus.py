"""Pinned outcome of scenario parsing on every one-node edit of the bundled scenarios.

Each case takes a bundled scenario and changes one node of its JSON: the
node is replaced by one bad or edge value, deleted, or (for an object) given
an unknown key.  The case is parsed by ``Scenario.from_dict`` and recorded as
one tab-separated line of ``tests/data/validation_corpus.txt``:

    path <TAB> value class <TAB> outcome <TAB> message

The outcome is ``ok``, ``ValidationError`` or the name of any other exception
that escaped.  For ``ok`` the message is a digest of what the parse gave and
of what the builders make of it (plant name and sizes, noise model, a seeded
initial state and the entropy it drew, the isls settings), so a change in
either shows up as well.  The digest holds only values that are exact on any
CPU: parsed numbers and their exact products, and the seeded draws.  An arm's
initial state passes through sin and cos, whose last bit may differ between
NumPy builds, so it enters rounded to 12 digits.  Runs of twenty or more
digits in a message are shortened.

Any change to validation shows up as a diff of the file.  After a deliberate
change, regenerate it with ``python tests/test_validation_corpus.py`` and
name the changed rows in ``CHANGES.md``.
"""

import hashlib
import re
import sys
from pathlib import Path

import numpy as np

from slsctrl.bench import bundled_scenario_path
from slsctrl.scenarios import (
    Scenario,
    ValidationError,
    build_noise,
    build_plant,
    draw_initial_state,
    isls_config,
    read_json,
)

GOLDEN = Path(__file__).parent / "data" / "validation_corpus.txt"
SCENARIOS = ("regulator_smoke", "mug_sugar", "pickplace_arm")
NAN, INF = float("nan"), float("inf")
# value class -> JSON value put at a node
VALUES = {
    "str": "x", "empty-str": "", "identity": "identity", "path": "../escaped",
    "true": True, "false": False, "null": None,
    "nan": NAN, "+inf": INF, "-inf": -INF,
    "zero": 0, "neg-zero": -0.0, "one": 1, "neg-one": -1, "half": 0.5, "neg-half": -0.5,
    "big-int": 10**15 + 1, "huge-int": 10**400, "neg-huge-int": -10**400,
    "empty-list": [], "list1": [1.0], "nested-list": [[[1.0]]], "ragged": [[1.0], [1.0, 2.0]],
    "str-list": ["x"], "null-list": [None], "bool-list": [True], "nan-list": [NAN],
    "huge-list": [10**400], "empty-obj": {}, "obj": {"a": 1}, "diag-obj": {"diag": [1.0]},
}
KINDS = ("double_integrator", "linear", "planar_arm", "fixed", "uniform_box", "arm_joints",
         "esls", "isls", "dp-lqt", "mpc-lqt", "batch-lqt")
DELETE, UNKNOWN_KEY = object(), object()


def sized_values(dims):
    """Values shaped for the scenario: vectors and matrices of each of its sizes."""
    out = {}
    for d in sorted(set(dims)):
        asym = np.eye(d)
        asym[0, d - 1] += 0.5
        out |= {f"vec{d}": [0.5] * d, f"neg-vec{d}": [-1.0] * d,
                f"zero-mat{d}": np.zeros((d, d)).tolist(),
                f"asym-mat{d}": asym.tolist(),
                f"inf-sym-mat{d}": np.where(np.eye(d) > 0, INF, 0.0).tolist(),
                f"neg-def-mat{d}": (-np.eye(d)).tolist()}
    return out


def nodes(node, path=()):
    """Every (path, value) of a JSON document, parents before children."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield from nodes(child, path + (key,))


def edited(node, path, value):
    """Copy of ``node`` with the node at ``path`` set to ``value`` (or deleted,
    or given an unknown key); only the containers along the path are copied."""
    if not path:
        return dict(node, unknown_key=1) if value is UNKNOWN_KEY else value
    head, rest = path[0], path[1:]
    copy = list(node) if isinstance(node, list) else dict(node)
    if not rest and value is DELETE:
        del copy[head]
    else:
        copy[head] = edited(node[head], rest, value)
    return copy


def digest(scenario):
    """Short hash of the parsed values and of what the builders make of them."""
    parts = [scenario.name, scenario.horizon, scenario.dt, scenario.state_dim,
             scenario.input_dim, scenario.control_weight, scenario.description,
             scenario.metadata, scenario.solver["kind"]]
    parts += [v for vp in scenario.viapoints for v in vp]
    parts += [v for c in scenario.correlations for v in (c.t1, c.t2, c.C, c.c, c.Q_c)]
    parts += [v for p in scenario.perturbations for v in p]
    plant = build_plant(scenario)
    parts += [plant.name, plant.state_dim, plant.input_dim]
    noise = build_noise(scenario)
    parts += [noise.mu_x0, noise.sigma_x0, noise.sigma_noise]
    rng = np.random.default_rng(0)
    x0 = draw_initial_state(scenario, rng, plant)
    parts += [[f"{v:.12g}" for v in x0], rng.random()]
    if scenario.solver["kind"] == "isls":
        cfg = isls_config(scenario)
        parts += [cfg.max_iterations] + [None if v is None else float(v) for v in (
            cfg.tolerance, cfg.regularization, cfg.hessian_floor, cfg.stationarity_tolerance)]
    blob = repr([(p.shape, p.tobytes()) if isinstance(p, np.ndarray) else p for p in parts])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def outcome(config):
    try:
        return "ok", digest(Scenario.from_dict(config))
    except ValidationError as exc:
        return "ValidationError", str(exc)
    except Exception as exc:  # the corpus records any escape, it does not stop on one
        return type(exc).__name__, str(exc)


def rows():
    """Every case of the corpus, as the lines of the golden file."""
    out = []
    for name in SCENARIOS:
        base = read_json(bundled_scenario_path(name), "scenario")
        parsed = Scenario.from_dict(base)
        values = VALUES | sized_values((parsed.state_dim, parsed.input_dim))
        for path, node in nodes(base):
            cases = dict(values)
            if path and path[-1] == "kind":
                cases |= {f"kind:{k}": k for k in KINDS}
            if path:
                cases["delete"] = DELETE
            if isinstance(node, dict):
                cases["unknown-key"] = UNKNOWN_KEY
            for label, value in cases.items():
                result, message = outcome(edited(base, path, value))
                message = re.sub(r"\d{20,}", lambda m: f"<{len(m[0])} digits>", message)
                where = ".".join([name, *map(str, path)])
                out.append("\t".join([where, label, result, message.replace("\n", "\\n")]))
    return out


def test_validation_corpus_is_unchanged():
    expected = GOLDEN.read_text().splitlines()
    actual = rows()
    changed = [f"- {e}\n+ {a}" for e, a in zip(expected, actual) if e != a]
    assert len(actual) == len(expected), (len(actual), len(expected))
    assert not changed, f"{len(changed)} rows changed, first:\n" + "\n".join(changed[:10])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(rows()) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
