import random
from itertools import repeat

import pytest

from cmintersect import (CMFieldParams, FieldValidationError, NContext,
                         perfect_square_root, validate)
from cmintersect.cm_fields import _branch_columns

CORPUS_SEED = 20240611

# Hand-picked members guarantee the corpus exercises known-good branches:
# the worked example, a field with two delta branches, and a field where
# ell = 2 divides an enumerated delta.
PINNED_FIELDS = (
    CMFieldParams(5, 0, 1, 1, 1),
    CMFieldParams(13, -3, 0, -3, 2),
    CMFieldParams(8, -3, -1, 2, 3),
)


def make_corpus(count=60, seed=CORPUS_SEED, dtilde_cap=2_000_000):
    """Deterministic fuzz corpus of validated fields, 2 <= D <= 60.

    Trace and norm coordinates stay within |.| <= 8; Dtilde is capped so
    the n-ranges stay desk-scale.
    """
    rng = random.Random(seed)
    fields, seen = [], set()
    for params in PINNED_FIELDS:
        try:
            fields.append(validate(params))
            seen.add(params)
        except FieldValidationError:
            pass
    while len(fields) < count:
        D = rng.randrange(2, 61)
        if D % 4 not in (0, 1) or perfect_square_root(D) is not None:
            continue
        params = CMFieldParams(
            D,
            rng.randint(-8, 8),
            rng.choice([-2, -1, -1, 0, 0, 1, 1, 2]),
            rng.randint(-8, 8),
            rng.randint(-8, 8),
        )
        if params in seen:
            continue
        seen.add(params)
        try:
            field = validate(params)
        except FieldValidationError:
            continue
        if field.Dtilde > dtilde_cap:
            continue
        fields.append(field)
    return fields


@pytest.fixture(scope="session")
def corpus():
    return make_corpus()


def n_contexts(field, dctx):
    """Every branch of one delta as an `NContext`, from the cached columns."""
    return tuple(map(NContext, repeat(dctx), *_branch_columns(field, dctx)))
