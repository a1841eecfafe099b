"""Seeded one-field mutations of every document the package loads.

Each mutation deletes one key or list item, swaps one value to another
JSON type, or replaces one number with 0, -1 or its numeric string.  Each
nudge moves one number, picked uniformly among the document's numbers, by
the least step of its type.  A mutated config must load or fail with
`config: ...`; a mutated copula or MLP artifact must load or fail with
SchemaError.  A copula model that loads must sample 20 profiles, and an
MLP that loads must predict 20 rows.
"""

import itertools
import json
import math
import random

import numpy as np
import pytest

from copaug.dataset import LevelGrid, SchemaError, flatten, generate_surrogate
from copaug.emulator import MLPLayout, forward, init_mlp, load_mlp, save_mlp
from copaug.experiment import default_config_dict, make_config
from copaug.multicop import CopulaSpec, fit_synth_model, model_from_dict, model_to_dict, sample_synth_model

N_MUTATIONS = 200
N_NUDGES = 100
ONE_PER_TYPE = (None, True, 7, "x", [1], {"a": 1})
GRID = LevelGrid(4)


def _json_type(value) -> str:
    name = type(value).__name__
    return "number" if name in ("int", "float") else name


def mutants(doc, seed: int):
    """(description, mutated copy) pairs: a random walk from the root picks
    the field, stopping at each nested container with probability 0.3."""
    gen = random.Random(seed)
    for _ in range(N_MUTATIONS):
        copy = json.loads(json.dumps(doc))
        parent, key, path = copy, None, []
        while True:
            keys = list(parent) if isinstance(parent, dict) else list(range(len(parent)))
            key = gen.choice(keys)
            path.append(key)
            child = parent[key]
            if not (isinstance(child, (dict, list)) and child) or gen.random() < 0.3:
                break
            parent = child
        value = parent[key]
        ops = ["delete", "retype"] + (["number"] if _json_type(value) == "number" else [])
        op = gen.choice(ops)
        if op == "delete":
            del parent[key]
        elif op == "retype":
            parent[key] = gen.choice([v for v in ONE_PER_TYPE if _json_type(v) != _json_type(value)])
        else:
            parent[key] = gen.choice([0, -1, repr(value)])
        yield f"{op} {path} (was {value!r:.40})", copy


def _number_paths(node, path=()):
    if isinstance(node, (dict, list)):
        for key in (node if isinstance(node, dict) else range(len(node))):
            yield from _number_paths(node[key], path + (key,))
    elif _json_type(node) == "number":
        yield path


def nudges(doc, seed: int):
    """(description, nudged copy) pairs: one number moved to the next float
    up, or an integer plus one.  Most fields the loaders read keep a valid
    value under such a step, so these copies reach the loaders' value checks
    and the loaded object, where most one-field mutations fail earlier."""
    gen = random.Random(seed)
    paths = list(_number_paths(doc))
    for _ in range(N_NUDGES):
        path = gen.choice(paths)
        copy = json.loads(json.dumps(doc))
        parent = copy
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]]
        parent[path[-1]] = value + 1 if type(value) is int else math.nextafter(value, math.inf)
        yield f"nudge {list(path)} (was {value!r:.40})", copy


def check_mutants(doc, seed: int, load, rejected, use=lambda obj: None):
    """Load every mutant and nudge of `doc`.  A fault is an exception that
    `rejected` does not accept, or any exception of `use` on a loaded
    object.  Returns (outcome counts, faults)."""
    counts, faults = {"loaded": 0, "rejected": 0}, []
    for what, mutant in itertools.chain(mutants(doc, seed), nudges(doc, seed)):
        try:
            obj = load(mutant)
        except Exception as exc:
            if not rejected(exc):
                faults.append(f"{what}: {type(exc).__name__}: {exc}")
            counts["rejected"] += 1
            continue
        counts["loaded"] += 1
        try:
            use(obj)
        except Exception as exc:
            faults.append(f"{what}: loaded, then {type(exc).__name__}: {exc}")
    return counts, faults


def schema_error(exc) -> bool:
    return isinstance(exc, SchemaError)


def test_config_mutations_load_or_name_their_key():
    counts, faults = check_mutants(default_config_dict(), 1, make_config,
                                   lambda exc: type(exc) is ValueError and str(exc).startswith("config: "))
    assert faults == []
    assert min(counts.values()) > 20, counts


@pytest.mark.parametrize("kind", ["gaussian", "vine"])
def test_model_mutations_load_and_sample_or_fail_schema(kind):
    model = fit_synth_model(generate_surrogate(60, GRID, 5), CopulaSpec(kind=kind, truncation=2))

    def sample(loaded):
        synth, _ = sample_synth_model(loaded, 20, 3)
        assert len(synth) == 20

    counts, faults = check_mutants(model_to_dict(model), 2, model_from_dict, schema_error, sample)
    assert faults == []
    assert min(counts.values()) > 20, counts


def test_mlp_mutations_load_and_predict_or_fail_schema(tmp_path):
    path = tmp_path / "mlp.json"
    save_mlp(path, init_mlp(MLPLayout(3 * GRID.n_full, (5,), GRID.n_half), 4))
    doc = json.loads(path.read_text())
    x = flatten(generate_surrogate(20, GRID, 6)).values

    def load(mutant):
        path.write_text(json.dumps(mutant))
        return load_mlp(path)

    def predict(loaded):
        assert np.all(np.isfinite(forward(loaded, x)))

    counts, faults = check_mutants(doc, 3, load, schema_error, predict)
    assert faults == []
    assert min(counts.values()) > 20, counts
