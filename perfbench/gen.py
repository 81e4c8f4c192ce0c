"""Seeded workload inputs: collection files and request schedules.

Everything here is a pure function of ``--seed``; the program under test
only ever sees what these functions write (a collection file) or send
(HTTP request bodies).

The collections are dblp-like author names with injected character-level
uncertainty, built from the library's own name and uncertainty
generators. Unlike ``repro.datasets.presets.dblp_like_collection`` the
*shape* of a collection is fixed and only its content depends on the
seed: string lengths are the quantiles of the paper's length profile
(not random draws), a fixed share of the strings are one-substitution
near-duplicates of a base string (not a Bernoulli draw), and these twins
are spread evenly over the length range. Joins spend most of their time on a
few expensive pairs (long strings with many uncertain positions); with
random shape, which seed drew how many such pairs moved a 200-string
join's pairs/s by almost 2x. With a fixed shape every seed presents the
same mix of work, so runs on different seeds measure the program, not
the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

from repro.datasets.loader import load_collection, save_collection
from repro.datasets.names import (
    LENGTH_MEAN,
    LENGTH_RANGE,
    LENGTH_STDDEV,
    generate_author_name,
)
from repro.datasets.uncertainty import inject_uncertainty
from repro.store.base import STORE_PRECISION
from repro.uncertain.alphabet import LOWERCASE27
from repro.uncertain.parser import format_uncertain
from repro.uncertain.string import UncertainString

#: The paper's average number of alternatives per uncertain position.
GAMMA = 5
#: Share of each collection that is planted near-duplicates.
TWIN_SHARE = 1 / 3


@dataclass(frozen=True)
class Collection:
    """A generated collection plus the structure the oracles use.

    ``twins`` are the (base id, near-duplicate id) pairs the generator
    planted; the benchmark never hands them to the program.
    """

    strings: list[UncertainString]
    twins: list[tuple[int, int]]


def _name_of_length(rng: random.Random, length: int) -> str:
    name = generate_author_name(rng, length)[:length]
    if name.endswith(" "):
        name = name[:-1] + rng.choice("aeiou")
    return name


def _substitute(text: str, rng: random.Random) -> str:
    position = rng.randrange(len(text))
    choices = [c for c in LOWERCASE27.symbols if c != text[position]]
    return text[:position] + rng.choice(choices) + text[position + 1 :]


def make_collection(
    seed: int, count: int, theta: float, max_uncertain: int
) -> Collection:
    """``count`` uncertain names (θ = ``theta``, at most ``max_uncertain``
    uncertain positions each), a ``TWIN_SHARE`` of them planted
    near-duplicates (one substitution away from their base)."""
    rng = random.Random(seed)
    lo, hi = LENGTH_RANGE
    profile = NormalDist(LENGTH_MEAN, LENGTH_STDDEV)
    twin_count = round(count * TWIN_SHARE)
    base_count = count - twin_count
    lengths = [
        min(hi, max(lo, round(profile.inv_cdf((i + 0.5) / base_count))))
        for i in range(base_count)
    ]
    texts = [_name_of_length(rng, length) for length in lengths]
    # Spread the twins evenly over the (length-ordered) bases, so they
    # cover the length profile the same way on every seed.
    twin_of = [i * base_count // twin_count for i in range(twin_count)]
    texts += [_substitute(texts[base], rng) for base in twin_of]
    order = list(range(count))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    strings: list[UncertainString] = [None] * count  # type: ignore[list-item]
    for old, text in enumerate(texts):
        strings[position[old]] = inject_uncertainty(
            text, min(theta, max_uncertain / len(text)), GAMMA, LOWERCASE27, rng
        )
    twins = [
        tuple(sorted((position[base], position[base_count + i])))
        for i, base in enumerate(twin_of)
    ]
    return Collection(strings, sorted(twins))  # type: ignore[arg-type]


def write_collection(collection: Collection, path: Path) -> Collection:
    """Write ``collection`` and return it as the program will read it.

    Parsing renormalizes each position's probabilities, which can move
    them by an ulp, so oracles must use the parsed strings, not the
    generated ones."""
    save_collection(collection.strings, path, precision=STORE_PRECISION)
    return Collection(load_collection(path), collection.twins)


@dataclass(frozen=True)
class Request:
    """One scheduled serve request: endpoint path and JSON body."""

    path: str
    body: dict


#: Search requests per top-k request in the serve mix.
SEARCHES_PER_TOPK = 4
#: ``count`` of every top-k request.
TOPK_COUNT = 3


def make_requests(
    seed: int, collection: Collection, count: int, stream: str
) -> list[Request]:
    """``count`` requests, four searches to one top-k, each querying a
    different collection string. The strings are drawn one from each of
    ``count`` equal slices of the collection ordered by length, and the
    slices are visited in a golden-ratio order, so every prefix of the
    schedule (a closed loop answers only as many as it can) asks about
    the same mix of short and long queries on every seed. ``stream``
    names an independent draw ("warmup", "timed")."""
    rng = random.Random(f"{seed}:{stream}")
    by_length = sorted(
        range(len(collection.strings)),
        key=lambda i: (len(collection.strings[i]), i),
    )
    picks = [
        by_length[rng.randrange(
            i * len(by_length) // count, (i + 1) * len(by_length) // count
        )]
        for i in range(count)
    ]
    golden = (5 ** 0.5 - 1) / 2
    spread = sorted(range(count), key=lambda n: (n * golden) % 1.0)
    slice_of = {n: rank for rank, n in enumerate(spread)}
    chosen = [picks[slice_of[n]] for n in range(count)]
    requests = []
    for index, string_id in enumerate(chosen):
        query = format_uncertain(
            collection.strings[string_id], precision=STORE_PRECISION
        )
        if index % (SEARCHES_PER_TOPK + 1) == SEARCHES_PER_TOPK:
            requests.append(
                Request("/topk", {"query": query, "count": TOPK_COUNT})
            )
        else:
            requests.append(Request("/search", {"query": query}))
    return requests
